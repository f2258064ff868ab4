"""Key sourcing, transcripts, and channel bookkeeping."""

import copy
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from blindqc import audit, protocol
from blindqc import statevec as sv
from blindqc.circuits import Circuit
from blindqc.protocol import N_SLOTS, run_protocol
from blindqc.session import (KeySource, ProtocolError, Round, Session,
                            ops_matrix)
from conftest import KeptRun, trip
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
        rnd = trip(sess, (0,), '{"angle":1.0,"kind":"rotate"}',
                   [sv.rz(1.0, 0)])
        t = sess.finish()
        assert rnd.tag == '{"angle":1.0,"kind":"rotate"}'
        assert t.round_trips() == 1
        # the state on the way out, then after the server's rotation
        assert np.abs(rnd.sent - [[0.36, -0.48j], [0.48j, 0.64]]).max() < 1e-12
        assert np.abs(rnd.received - [[0.36, -0.48j * np.exp(-1j)],
                                      [0.48j * np.exp(1j), 0.64]]).max() < 1e-12

    def test_stored_densities_are_frozen_copies(self):
        sess = Session(2, seed=0)
        sess.client_apply([sv.h(0), sv.h(1), sv.cz(0, 1), sv.h(1)])
        stored = sess.round_trip((0, 1), ops_matrix([sv.rz(0.5, 1)], (0, 1)))
        before = [rho.copy() for rho in stored]
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
            trip(sess, (0,), '{"angle":0.3,"kind":"rotate"}',
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
        rho = trip(sess, (1,), '{"angle":0.0,"kind":"rotate"}', []).sent
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-12

    def test_payload_density_of_lower_wires_is_their_reduced_state(self):
        # wires below the top of the register take the transposing path
        state = oracles.random_state(3, np.random.default_rng(5))
        tensor = state.amps.reshape(2, 2, 2)  # axes: qubit 2, 1, 0
        sess = Session(3, seed=0)
        sess.amps = state.amps.copy()
        one = trip(sess, (1,), '{"angle":0.0,"kind":"rotate"}', [])
        two = trip(sess, (0, 2), '{"angle":0.0,"kind":"rotate"}', [])
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
            rnd = trip(sess, (2,), '{"angle":0.3,"kind":"rotate"}',
                       [sv.rz(0.3, 2)])
            return sess.finish(), rnd

        (a, ra) = run(oracles.new_state(3))
        (b, rb) = run(oracles.apply(oracles.new_state(3), sv.x(0)))
        assert np.array_equal(ra.sent, rb.sent)
        assert np.array_equal(ra.received, rb.received)
        assert a.digest() != b.digest()

    def test_digest_covers_off_channel_changes_inside_a_gate(self):
        # the x lands between two rounds of one gate and is undone after
        # the gate, so tags, op kinds, densities and final register all agree
        def run(wire):
            sess = Session(3, seed=0)
            tag = '{"angle":0.3,"kind":"rotate"}'
            rounds = [trip(sess, (2,), tag, [sv.rz(0.3, 2)])]
            sess.client_apply([sv.x(wire)])
            rounds.append(trip(sess, (2,), tag, [sv.rz(0.3, 2)]))
            sess.mark_gate(0, "rz", 0)
            sess.client_apply([sv.x(wire)])
            return sess, rounds

        (a, rounds_a), (b, rounds_b) = run(0), run(1)
        assert np.array_equal(a.amps, b.amps)
        for ra, rb in zip(rounds_a, rounds_b, strict=True):
            assert np.array_equal(ra.sent, rb.sent)
            assert np.array_equal(ra.received, rb.received)
        assert a.finish().digest() != b.finish().digest()

    def test_digest_covers_transmitted_densities(self):
        # same tags, op kinds and final register; only the channel differs
        def run(wire):
            sess = Session(2, seed=0)
            sess.client_apply([sv.x(wire)])
            rnd = trip(sess, (0,), '{"angle":0.0,"kind":"rotate"}', [])
            sess.client_apply([sv.x(wire)])
            return sess, rnd

        (a, ra), (b, rb) = run(0), run(1)
        assert np.array_equal(a.amps, b.amps)
        assert not np.array_equal(ra.sent, rb.sent)
        assert a.finish().digest() != b.finish().digest()

    def test_checkpointed_run_digest_matches_plain_run(self, monkeypatch):
        # the checkpointed run is the plain run, round by round; pad labels
        # are not in the digest.  At M = 60 the ladder's 1829 rounds run in
        # two chunks, and the run's check gets each chunk's rounds
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1),
                           sv.measure(0)))
        chunks = []
        ladder = Session.ladder

        def logged_ladder(self, transit, blocks, server, starts=None):
            chunks.append([len(labels) for _, labels, _, _ in blocks])
            return ladder(self, transit, blocks, server, starts)

        monkeypatch.setattr(Session, "ladder", logged_ladder)
        for epsilon, m_bits in ((0.1, 5), (1e-6, 22), (math.pi / 2**60, 60)):
            chunks.clear()
            plain = run_protocol(circ, epsilon, seed=6)
            # whole blocks of at least 1000 rounds, then the rest
            want = ([list(range(2, 46)), list(range(46, 61))] if m_bits > 45
                    else [list(range(2, m_bits + 1))])
            assert chunks == want
            run = KeptRun(circ, epsilon, 6)
            assert chunks == want * 2
            base = run.result
            assert base.transcript.digest() == plain.transcript.digest()
            # tags, transmitted wires, markers and op kinds
            assert base.transcript == plain.transcript
            assert np.array_equal(base.working_state.amps,
                                  plain.working_state.amps)
            # each ladder chunk's first and last round replay to themselves
            rounds = run.rounds
            starts = {f"gate2:m{c[0]}:k{c[0]}" for c in want}
            firsts = [i for i, rnd in enumerate(rounds)
                      if rnd.pad_labels[-1][1] in starts]
            assert len(firsts) == len(want)
            for i in firsts + [j - 1 for j in firsts[1:]] + [len(rounds) - 1]:
                label = rounds[i].pad_labels[-1][1]
                (again,) = run.replay(i, label, [run.keys.pad_pair(label)])
                assert again.sent.tobytes() == rounds[i].sent.tobytes()
                assert again.received.tobytes() == rounds[i].received.tobytes()
            # chunking moves no byte: the whole ladder as one step
            chunks.clear()
            with monkeypatch.context() as patched:
                patched.setattr(protocol, "LADDER_ROUNDS", math.inf)
                whole = run_protocol(circ, epsilon, seed=6)
            assert chunks == [list(range(2, m_bits + 1))]
            assert whole.transcript.digest() == plain.transcript.digest()
            assert whole.transcript.tags == plain.transcript.tags
            assert np.array_equal(whole.working_state.amps,
                                  plain.working_state.amps)

    def test_fork_starts_empty_and_pins_its_label_on_one_key_source(
            self, monkeypatch):
        sess = Session(2, seed=0, epsilon=0.1)
        sess.keys = KeySource(0, {"q": (0, 1)})
        sess.client_apply([sv.h(0)])
        trip(sess, (0,), '{"kind":"block"}', [], pad_labels=((0, "q"),))
        fork = sess.fork()
        t = fork.transcript
        assert t.markers == []
        assert not (t.tags or t._wires or t.client_op_kinds
                    or t.server_op_kinds)
        # the same header and an empty running hash as a fresh session's
        assert t.digest() == Session(2, seed=0,
                                     epsilon=0.1).transcript.digest()
        assert fork.amps is None and fork.wire_pair is None
        assert sess.keys.overrides == {"q": (0, 1)}
        # each replayed pair draws the label as pinned, all else as the run,
        # all on one key source that pins nothing but the round's labels
        run = KeptRun(Circuit(2, (sv.h(0), sv.rz(1.1, 1))), 0.1, seed=3)
        saved = [copy.deepcopy(state) for _, state, _ in run.checked]
        draws = []
        pad_pair = KeySource.pad_pair

        def logged_pad_pair(self, label):
            draws.append((self, label, pad_pair(self, label),
                          dict(self.overrides)))
            return draws[-1][2]

        monkeypatch.setattr(KeySource, "pad_pair", logged_pad_pair)
        pairs = ((1, 0), (0, 0), (1, 1))
        for i, rnd in enumerate(run.rounds):
            own = {lbl: pad_pair(run.keys, lbl) for _, lbl in rnd.pad_labels}
            for _, label in rnd.pad_labels:
                draws.clear()
                run.replay(i, label, pairs)
                sources = list(dict.fromkeys(
                    keys for keys, *_ in draws if keys is not run.keys))
                assert len(sources) == 1
                assert [got for k, lbl, got, _ in draws
                        if lbl == label and k is sources[0]] == list(pairs)
                for keys, lbl, got, overrides in draws:
                    if keys is sources[0]:
                        assert overrides == {**own, label: overrides[label]}
                        assert overrides[label] in pairs
                    if lbl != label:
                        assert got == own[lbl]
        # no replay wrote to the states the run handed its check
        for (_, kept, _), state in zip(run.checked, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(kept) == vars(state)
            else:
                assert np.array_equal(kept, state)

    def test_full_register_run_keeps_no_register_sized_arrays(self):
        # 8 working qubits and the four slots fill the cap
        circ = Circuit(8, (sv.h(0), sv.cz(3, 7), sv.rz(0.7, 5)))
        run = KeptRun(circ, 1e-2, seed=1)
        assert run.result.transcript.n_qubits + N_SLOTS == sv.MAX_QUBITS
        for rnd in run.rounds:
            for value in rnd:
                for item in (value if isinstance(value, tuple) else (value,)):
                    if isinstance(item, np.ndarray):
                        assert item.size <= 16 * 16

    def test_gate_markers_track_round_spans(self):
        sess = Session(1, seed=0)
        start = sess.transcript.round_trips()
        trip(sess, (0,), '{"angle":0.2,"kind":"rotate"}', [sv.rz(0.2, 0)])
        sess.mark_gate(0, "rz", start)
        t = sess.finish()
        assert t.markers[0].round_start == 0
        assert t.markers[0].round_end == 1

    def test_server_op_kinds_are_recorded(self):
        sess = Session(1, seed=0)
        sess.round_trip((0,), ops_matrix([sv.h(0)], (0,)))
        # the round trip leaves the state as sent; the server's gates follow
        t = sess.transcript
        assert t.server_op_kinds == [] and sess.amps[0] == 1.0
        sess.server_apply([sv.h(0)])
        t = sess.finish()
        assert t.server_op_kinds == ["h"]
        assert "swap" not in t.client_op_kinds

    def test_measure_needs_wire_in_range(self):
        sess = Session(1, seed=0)
        with pytest.raises(ProtocolError):
            sess.client_measure(1 + N_SLOTS, "bad")
        # the client's ops and the channel read the wires directly, and
        # refuse the same wire; no op names a negative one
        with pytest.raises(ProtocolError, match="out of range"):
            sess.client_apply([sv.x(1 + N_SLOTS)])
        for wires in ((1 + N_SLOTS,), (-1, 0)):
            with pytest.raises(ProtocolError, match="out of range"):
                sess.round_trip(wires, np.eye(1 << len(wires)))
        with pytest.raises(ValueError, match="negative"):
            sv.x(-1)


def reachable(obj):
    """Every object ``obj`` holds, through containers and attributes."""
    seen, todo = set(), [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, dict):
            todo += [*item.keys(), *item.values()]
        elif isinstance(item, (list, tuple)):
            todo += item
        elif hasattr(item, "__dict__"):
            todo += vars(item).values()


class TestPlainRunMemory:
    """A plain run keeps each round's tag and wires, not its densities."""

    CIRC = Circuit(1, (sv.h(0), sv.rz(0.7, 0)))

    def test_transcript_holds_no_density_and_no_round(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1)))
        t = run_protocol(circ, 1e-2, seed=3).transcript
        held = list(reachable(t))
        assert not any(isinstance(x, (np.ndarray, Round)) for x in held)
        assert t.round_trips() == 2 + 45

    def test_retained_memory_per_round_trip(self):
        epsilon = math.pi / 2**100
        run_protocol(self.CIRC, epsilon, seed=1)  # fill the bounded caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_protocol(self.CIRC, epsilon, seed=1)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.transcript.round_trips() == 1 + 100 * 101 // 2 == 5051
        assert kept / res.transcript.round_trips() <= 200

    def test_rounds_of_a_plain_run_are_refused(self):
        # a transcript keeps no rounds: the check reads them as they are made
        other = Circuit(1, (sv.h(0), sv.rz(-2.1, 0)))
        plain = run_protocol(self.CIRC, 1e-2, seed=4).transcript
        run = KeptRun(self.CIRC, 1e-2, 4)
        kept = run.result.transcript
        with pytest.raises(AttributeError):
            plain.rounds
        assert plain.round_trips() == len(run.rounds) == 1 + 45
        assert plain.digest() == kept.digest()
        assert audit.classical_view(plain) == tuple(r.tag for r in run.rounds)
        assert audit.count_rounds(plain) == audit.count_rounds(kept)
        assert audit.view_invariance(self.CIRC, other, 1e-2, 4) == (
            audit.classical_view(plain))
