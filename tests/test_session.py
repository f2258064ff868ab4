"""Key sourcing, transcripts, and channel bookkeeping."""

import copy
import hashlib

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.circuits import Circuit
from blindqc.protocol import CheckpointedRun, run_protocol
from blindqc.session import KeySource, ProtocolError, Session
import oracles


class TestKeySource:
    def test_same_label_same_seed_is_deterministic(self):
        assert KeySource(7).pad_pair("g0/k1") == KeySource(7).pad_pair("g0/k1")
        assert KeySource(7).measure_u("g0/r") == KeySource(7).measure_u("g0/r")

    def test_draw_order_does_not_matter(self):
        src_a = KeySource(3)
        pa = src_a.pad_pair("x")
        pb = src_a.pad_pair("y")
        src_b = KeySource(3)
        qb = src_b.pad_pair("y")
        qa = src_b.pad_pair("x")
        assert (pa, pb) == (qa, qb)

    def test_distinct_labels_decorrelate(self):
        src = KeySource(0)
        pairs = {src.pad_pair(f"lbl{i}") for i in range(64)}
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_overrides_pin_specific_labels(self):
        src = KeySource(5, overrides={"g1/k2": (1, 0)})
        assert src.pad_pair("g1/k2") == (1, 0)
        assert KeySource(5).pad_pair("g1/k3") == src.pad_pair("g1/k3")

    def test_pad_bits_are_unbiased(self):
        src = KeySource(11)
        bits = np.array([src.pad_pair(f"p{i}") for i in range(2000)])
        assert abs(bits.mean() - 0.5) < 0.05


class TestKeyDerivation:
    """The draw recipe itself, restated here with hashlib."""

    SEEDS = (0, 1, 7, 2**40 + 3)
    LABELS = ("g0/slot1", "gate3:m3:k3", "gate2:m1:k1", "m0", "")

    def test_pad_pair_known_answer(self):
        for seed in self.SEEDS:
            for label in self.LABELS:
                b = hashlib.blake2b(f"{seed}/pad/{label}".encode(),
                                    digest_size=1).digest()[0]
                assert KeySource(seed).pad_pair(label) == (b & 1, (b >> 1) & 1)

    def test_measure_u_known_answer(self):
        for seed in self.SEEDS:
            for label in self.LABELS:
                raw = hashlib.blake2b(f"{seed}/u/{label}".encode(),
                                      digest_size=8).digest()
                u = (int.from_bytes(raw, "little") >> 11) * 2.0**-53
                assert KeySource(seed).measure_u(label) == u

    def test_pad_pairs_are_uniform(self):
        src = KeySource(2024)
        n = 4096
        counts = {pair: 0 for pair in ((0, 0), (0, 1), (1, 0), (1, 1))}
        for i in range(n):
            counts[src.pad_pair(f"lbl{i}")] += 1
        expected = n / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-squared with 3 degrees of freedom, p = 0.001
        assert chi2 < 16.3

    def test_measure_u_is_in_unit_interval_and_distinct(self):
        src = KeySource(5)
        us = [src.measure_u(f"m{i}") for i in range(2048)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert len(set(us)) == len(us)


class TestSession:
    def test_round_trip_records_both_directions(self):
        sess = Session(1, seed=0)
        sess.amps[:] = [0.6, 0.8j]
        sess.round_trip((0,), '{"angle":1.0,"kind":"rotate"}',
                        [sv.rz(1.0, 0)])
        t = sess.finish()
        (rnd,) = t.rounds
        assert rnd.tag == '{"angle":1.0,"kind":"rotate"}'
        assert t.round_trips() == 1
        # the state on the way out, then after the server's rotation
        assert np.abs(rnd.sent - [[0.36, -0.48j], [0.48j, 0.64]]).max() < 1e-12
        assert np.abs(rnd.received - [[0.36, -0.48j * np.exp(-1j)],
                                      [0.48j * np.exp(1j), 0.64]]).max() < 1e-12

    def test_stored_densities_are_frozen_copies(self):
        sess = Session(2, seed=0)
        sess.client_apply([sv.h(0), sv.h(1), sv.cz(0, 1), sv.h(1)])
        sess.round_trip((0, 1), '{"angle":0.5,"kind":"rotate"}',
                        [sv.rz(0.5, 1)])
        rnd = sess.transcript.rounds[0]
        stored = (rnd.sent, rnd.received)
        before = [rho.copy() for rho in stored]
        for rho in stored:
            with pytest.raises(ValueError):
                rho[0, 0] = 0.0
        sess.client_apply([sv.x(0), sv.h(1)])
        sess.client_measure(0, "m0")
        for rho, old in zip(stored, before):
            assert np.array_equal(rho, old)
        assert sess.amps.flags.writeable

    def test_client_measure_collapses_like_measure_qubit(self):
        state = oracles.random_state(3, np.random.default_rng(8))
        for wire in range(3):
            sess = Session(3, seed=2)
            sess.amps = state.amps.copy()
            outcome = sess.client_measure(wire, "r")
            expect, bit = sv.measure_qubit(state, wire,
                                           u=sess.keys.measure_u("r"))
            assert outcome == bit
            assert np.array_equal(sess.amps, expect.amps)

    def test_digest_is_reproducible_and_seed_sensitive(self):
        def run(seed):
            sess = Session(2, seed=seed)
            a, b = sess.keys.pad_pair("p")
            if b:
                sess.client_apply([sv.z(0)])
            if a:
                sess.client_apply([sv.x(0)])
            sess.round_trip((0,), '{"angle":0.3,"kind":"rotate"}',
                            [sv.rz(0.3, 0)], pad_labels=((0, "p"),))
            return sess.finish().digest()

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_client_measure_uses_labeled_draw(self):
        plus = oracles.new_state(1, np.array([1, 1]) / np.sqrt(2))
        outcomes = set()
        for seed in range(12):
            sess = Session(1, seed=seed)
            sess.amps = plus.amps.copy()
            outcomes.add(sess.client_measure(0, "r0"))
        assert outcomes == {0, 1}

    def test_payload_density_is_reduced_state_of_transmitted_wires(self):
        sess = Session(2, seed=1)
        sess.client_apply([sv.h(0), sv.h(1), sv.cz(0, 1), sv.h(1)])
        sess.round_trip((1,), '{"angle":0.0,"kind":"rotate"}', [])
        rho = sess.transcript.rounds[0].sent
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-12

    def test_payload_density_of_lower_wires_is_their_reduced_state(self):
        # wires below the top of the register take the transposing path
        state = oracles.random_state(3, np.random.default_rng(5))
        tensor = state.amps.reshape(2, 2, 2)  # axes: qubit 2, 1, 0
        sess = Session(3, seed=0)
        sess.amps = state.amps.copy()
        sess.round_trip((1,), '{"angle":0.0,"kind":"rotate"}', [])
        sess.round_trip((0, 2), '{"angle":0.0,"kind":"rotate"}', [])
        one, two = sess.transcript.rounds
        rho_1 = np.einsum("aib,ajb->ij", tensor, tensor.conj())
        assert np.allclose(one.sent, rho_1, atol=1e-12)
        assert np.allclose(one.wire_state(one.sent, 1), rho_1, atol=1e-12)
        # qubit 0 is the low bit of the joint index, qubit 2 the high bit
        rho_02 = np.einsum("ixj,kxl->ijkl", tensor, tensor.conj())
        assert np.allclose(two.sent, rho_02.reshape(4, 4),
                           atol=1e-12)
        # each wire's state is read off the joint, not traced again
        for wire in (0, 2):
            assert np.abs(two.wire_state(two.sent, wire) - sv.reduced_density(
                state, [wire]).mat).max() < 1e-15

    def test_digest_covers_wires_off_the_channel(self):
        def run(working):
            sess = Session(3, seed=0)
            sess.amps = working.amps.copy()
            sess.round_trip((2,), '{"angle":0.3,"kind":"rotate"}',
                            [sv.rz(0.3, 2)])
            return sess.finish()

        a = run(oracles.new_state(3))
        b = run(oracles.apply(oracles.new_state(3), sv.x(0)))
        for ra, rb in zip(a.rounds, b.rounds):
            assert np.array_equal(ra.sent, rb.sent)
            assert np.array_equal(ra.received, rb.received)
        assert a.digest() != b.digest()

    def test_digest_covers_off_channel_changes_inside_a_gate(self):
        # the x lands between two rounds of one gate and is undone after
        # the gate, so tags, op kinds, densities and final register all agree
        def run(wire):
            sess = Session(3, seed=0)
            tag = '{"angle":0.3,"kind":"rotate"}'
            sess.round_trip((2,), tag, [sv.rz(0.3, 2)])
            sess.client_apply([sv.x(wire)])
            sess.round_trip((2,), tag, [sv.rz(0.3, 2)])
            sess.mark_gate(0, "rz", 0)
            sess.client_apply([sv.x(wire)])
            return sess

        a, b = run(0), run(1)
        assert np.array_equal(a.amps, b.amps)
        for ra, rb in zip(a.transcript.rounds, b.transcript.rounds):
            assert np.array_equal(ra.sent, rb.sent)
            assert np.array_equal(ra.received, rb.received)
        assert a.finish().digest() != b.finish().digest()

    def test_digest_covers_transmitted_densities(self):
        # same tags, op kinds and final register; only the channel differs
        def run(wire):
            sess = Session(2, seed=0)
            sess.client_apply([sv.x(wire)])
            sess.round_trip((0,), '{"angle":0.0,"kind":"rotate"}', [])
            sess.client_apply([sv.x(wire)])
            return sess

        a, b = run(0), run(1)
        assert np.array_equal(a.amps, b.amps)
        assert not np.array_equal(a.transcript.rounds[0].sent,
                                  b.transcript.rounds[0].sent)
        assert a.finish().digest() != b.finish().digest()

    def test_checkpointed_run_digest_matches_plain_run(self):
        # the checkpointed run is the plain run, round by round; pad labels
        # are not in the digest
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1),
                           sv.measure(0)))
        for epsilon in (0.1, 1e-6):
            plain = run_protocol(circ, epsilon, seed=6)
            base = CheckpointedRun(circ, epsilon, 6).result
            assert base.transcript.digest() == plain.transcript.digest()
            assert np.array_equal(base.state.amps, plain.state.amps)
            got, want = base.transcript.rounds, plain.transcript.rounds
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a.tag, a.transmitted, a.pad_labels) == (
                    b.tag, b.transmitted, b.pad_labels)
                assert np.array_equal(a.sent, b.sent)
                assert np.array_equal(a.received, b.received)

    def test_fork_starts_empty_with_only_its_label_pinned(self, monkeypatch):
        sess = Session(2, seed=0, epsilon=0.1)
        sess.keys = KeySource(0, {"q": (0, 1)})
        sess.client_apply([sv.h(0)])
        sess.round_trip((0,), '{"kind":"block"}', [], pad_labels=((0, "q"),))
        fork = sess.fork()
        t = fork.transcript
        assert (t.rounds, t.markers, t.client_op_kinds,
                t.server_op_kinds) == ([], [], [], [])
        # the same header and an empty running hash as a fresh session's
        assert t.digest() == Session(2, seed=0,
                                     epsilon=0.1).transcript.digest()
        assert fork.amps is None and fork.wire_pair is None
        assert sess.keys.overrides == {"q": (0, 1)}
        # each replayed pair draws the label as pinned, all else as the run
        run = CheckpointedRun(Circuit(2, (sv.h(0), sv.rz(1.1, 1))), 0.1,
                              seed=3)
        saved = [copy.deepcopy(cp.state) for cp in run._checkpoints]
        draws = []
        pad_pair = KeySource.pad_pair

        def logged_pad_pair(self, label):
            draws.append((self, label, pad_pair(self, label)))
            return draws[-1][2]

        monkeypatch.setattr(KeySource, "pad_pair", logged_pad_pair)
        pairs = ((1, 0), (0, 0), (1, 1))
        for i, rnd in enumerate(run.result.transcript.rounds):
            for _, label in rnd.pad_labels:
                draws.clear()
                run.replay(i, label, pairs)
                sources = list(dict.fromkeys(keys for keys, _, _ in draws))
                assert len(sources) == len(pairs)
                for keys, pair in zip(sources, pairs):
                    assert keys.overrides == {label: pair}
                    assert (label, pair) in [(lbl, got) for k, lbl, got
                                             in draws if k is keys]
                for _, lbl, got in draws:
                    if lbl != label:
                        assert got == pad_pair(run.keys, lbl)
        # no replay wrote to the states the checkpoints saved
        for cp, state in zip(run._checkpoints, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(cp.state) == vars(state)
            else:
                assert np.array_equal(cp.state, state)

    def test_full_register_run_keeps_no_register_sized_arrays(self):
        circ = Circuit(8, (sv.h(0), sv.cz(3, 7), sv.rz(0.7, 5)))
        t = run_protocol(circ, 1e-2, seed=1).transcript
        assert t.n_qubits == sv.MAX_QUBITS
        for rnd in t.rounds:
            for value in rnd:
                for item in (value if isinstance(value, tuple) else (value,)):
                    if isinstance(item, np.ndarray):
                        assert item.size <= 16 * 16

    def test_gate_markers_track_round_spans(self):
        sess = Session(1, seed=0)
        start = len(sess.transcript.rounds)
        sess.round_trip((0,), '{"angle":0.2,"kind":"rotate"}',
                        [sv.rz(0.2, 0)])
        sess.mark_gate(0, "rz", start)
        t = sess.finish()
        assert t.markers[0].round_start == 0
        assert t.markers[0].round_end == 1

    def test_server_op_kinds_are_recorded(self):
        sess = Session(1, seed=0)
        sess.round_trip((0,), '{"kind":"block"}', [sv.h(0)])
        t = sess.finish()
        assert t.server_op_kinds == ["h"]
        assert "swap" not in t.client_op_kinds

    def test_measure_needs_wire_in_range(self):
        sess = Session(1, seed=0)
        with pytest.raises(ProtocolError):
            sess.client_measure(3, "bad")
