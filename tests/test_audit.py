"""Auditor behavior: view invariance, mixedness, negative control."""

import collections
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from blindqc import audit, protocol
from blindqc import statevec as sv
from blindqc.angles import precision_bits
from blindqc.audit import (
    ALL_PAIRS,
    SkeletonMismatch,
    ViewMismatch,
    audit_circuit,
    capability_confinement,
    circuit_skeleton,
    classical_view,
    count_rounds,
    payload_mixedness,
    view_digest,
    view_invariance,
)
from blindqc.circuits import Circuit
from blindqc.protocol import run_protocol
from blindqc.session import KeySource, Round, Session
from conftest import KeptRun, kept_run
from register_engine import run_pinned

PI = math.pi
EPS_M2 = PI / 4  # two digit blocks keep exhaustive replays quick
EPS_M3 = PI / 8


class TestClassicalView:
    def test_skeleton_classes(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.3, 1),
                           sv.measure(0)))
        assert circuit_skeleton(circ) == ("block", "block", "rz")

    def test_single_rotation_view_is_the_fixed_ladder(self):
        res = run_protocol(Circuit(1, (sv.rz(1.234, 0),)), EPS_M3, seed=0)
        assert classical_view(res.transcript) == (
            '{"k":1,"kind":"block"}',
            '{"k":2,"kind":"round"}',
            '{"k":1,"kind":"round"}',
            '{"k":3,"kind":"round"}',
            '{"k":2,"kind":"round"}',
            '{"k":1,"kind":"round"}',
        )

    def test_view_carries_no_angles_or_wires(self):
        res = run_protocol(
            Circuit(3, (sv.h(2), sv.rz(-2.71, 0), sv.cz(1, 2))),
            EPS_M2, seed=3)
        text = "".join(classical_view(res.transcript))
        assert "2.71" not in text
        assert "wire" not in text and "angle" not in text


class TestViewInvariance:
    def test_h_and_cz_are_indistinguishable(self):
        view = view_invariance(
            Circuit(2, (sv.h(0),)), Circuit(2, (sv.cz(0, 1),)),
            EPS_M2, seed=1)
        assert view == ('{"kind":"block"}',)

    def test_rotation_angle_never_shows(self):
        a = Circuit(1, (sv.rz(0.1, 0),))
        b = Circuit(1, (sv.rz(-3.0, 0),))
        assert view_invariance(a, b, EPS_M3, seed=2)

    def test_wire_choice_never_shows(self):
        a = Circuit(3, (sv.h(0), sv.cz(0, 1), sv.rz(1.0, 2)))
        b = Circuit(3, (sv.h(2), sv.cz(1, 2), sv.rz(-0.4, 0)))
        assert view_invariance(a, b, EPS_M2, seed=3)

    def test_random_same_skeleton_pairs(self):
        rng = np.random.default_rng(51)
        makers = {
            "block": lambda: (sv.h(int(rng.integers(2))) if rng.integers(2)
                              else sv.cz(0, 1)),
            "rz": lambda: sv.rz(float(rng.uniform(-PI, PI)),
                                int(rng.integers(2))),
        }
        for trial in range(10):
            skeleton = [("block", "rz")[rng.integers(2)] for _ in range(5)]
            a = Circuit(2, tuple(makers[c]() for c in skeleton))
            b = Circuit(2, tuple(makers[c]() for c in skeleton))
            assert view_invariance(a, b, EPS_M2, seed=trial)

    def test_different_skeletons_are_not_comparable(self):
        with pytest.raises(SkeletonMismatch):
            view_invariance(Circuit(1, (sv.h(0),)),
                            Circuit(1, (sv.rz(1.0, 0),)), EPS_M2, seed=0)

    def test_gate_count_difference_is_a_skeleton_difference(self):
        with pytest.raises(SkeletonMismatch):
            view_invariance(Circuit(1, (sv.h(0), sv.h(0))),
                            Circuit(1, (sv.h(0),)), EPS_M2, seed=0)


class TestMixedness:
    def test_exhaustive_twirl_is_exact(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 0)))
        res, control, _ = payload_mixedness(circ, EPS_M2, 4)
        assert res["pass"]
        assert res["worst_distance"] < 1e-10
        assert res["inbound_worst_distance"] < 1e-10
        assert res["uncovered"] == [] and res["reused"] == []
        # the unpadded states beside the checks feed the negative control
        assert control >= audit.NEGATIVE_CONTROL_THRESHOLD
        # every transmitted wire of every round got checked
        assert res["n_checks"] == 4 + 4 + 4 + 1 + 1

    def test_exhaustive_covers_entangled_working_states(self):
        # working wires entangled before delegation; pads must still mix
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.h(1), sv.rz(2.2, 1)))
        res, _, _ = payload_mixedness(circ, EPS_M2, 5)
        assert res["pass"] and res["worst_distance"] < 1e-10

    def test_signed_digits_are_audited(self):
        # balanced digits, whose -1 takes the negative branches of the
        # round plans, under the extractor the audit takes
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1), sv.h(1),
                           sv.rz(-2.2, 0)))
        for epsilon, n_checks in ((1e-1, 48), (1e-2, 108)):
            base = run_protocol(circ, epsilon, 0, extractor="balanced")
            assert any(-1 in d.digits for d in base.digits.values())
            report = audit_circuit(circ, epsilon, 0, extractor="balanced")
            assert report["extractor"] == "balanced"
            assert report["mixedness"]["n_checks"] == n_checks
            assert report["mixedness"]["worst_distance"] < 1e-10
            assert report["pass"] is True
        assert assert_replays_match_whole_circuit(
            circ, 1e-1, 0, "balanced") == 4 * 48

    def test_a_wire_without_a_pad_label_is_uncovered(self, monkeypatch):
        # the first block round leaves slot 2 (wire 3) out of its pad labels
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 0)))
        record = protocol._Run._record

        def dropping_record(self, transmitted, tags, densities, starts):
            if not self.session.transcript.round_trips():
                starts = [(tuple((w, lbl) for w, lbl in pad_labels
                                 if w != 3), *start)
                          for pad_labels, *start in starts]
            record(self, transmitted, tags, densities, starts)

        monkeypatch.setattr(protocol._Run, "_record", dropping_record)
        report = audit_circuit(circ, EPS_M2, seed=4)
        assert report["mixedness"]["uncovered"] == ["round 0 wire 3"]
        # every label still checked twirls exactly: only the gap fails
        assert report["mixedness"]["worst_distance"] < 1e-10
        assert report["mixedness"]["pass"] is False
        assert report["pass"] is False

    def test_exhaustive_mode_keyword_is_the_default_report(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 0)))
        assert (audit_circuit(circ, EPS_M2, 4, mode="exhaustive")
                == audit_circuit(circ, EPS_M2, 4))

    def test_unknown_mode_rejected(self):
        for mode in ("sampled", "full"):
            with pytest.raises(ValueError, match="mode"):
                audit_circuit(Circuit(1, (sv.h(0),)), EPS_M2, seed=0,
                              mode=mode)

    @pytest.mark.parametrize("ops", [(), (sv.measure(0),)],
                             ids=["no-gates", "measure-only"])
    def test_circuit_delegating_nothing_is_refused(self, monkeypatch, ops):
        # with no traffic the negative control reads 0 although nothing leaked
        built = []
        monkeypatch.setattr(audit, "checked_run",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match="delegates no gates"):
            audit_circuit(Circuit(2, ops), EPS_M2, seed=0)
        assert built == []


class TestReplayReuse:
    CIRC = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.h(1), sv.rz(2.2, 1)))

    def test_pinning_a_label_to_its_own_draw_reproduces_the_baseline(self):
        base = kept_run(self.CIRC, EPS_M2, seed=4)
        keys = KeySource(4)
        labels = [label for rnd in base.rounds
                  for _, label in rnd.pad_labels]
        # three blocks, the rz block (three dummies and the transit), and
        # the two single-wire rounds of the m=2 digit block
        assert len(labels) == 4 * 4 + 2
        for label in labels:
            pinned = run_pinned(self.CIRC, EPS_M2, 4,
                                {label: keys.pad_pair(label)})
            assert (pinned.transcript.digest()
                    == base.result.transcript.digest())

    def test_exhaustive_report_matches_all_four_replays(self, monkeypatch):
        forks, replayed = [], []
        fork, replay = Session.fork, audit.replay

        def counting_fork(self):
            forks.append(fork(self))
            return forks[-1]

        def counting_replay(*args):
            replayed.append(len(got := replay(*args)))
            return got

        monkeypatch.setattr(Session, "fork", counting_fork)
        monkeypatch.setattr(audit, "replay", counting_replay)
        report = audit_circuit(self.CIRC, EPS_M2, seed=4)
        # the seed's own pair is the baseline: one fork per label runs the
        # round under each of the other three pairs, and records nothing
        assert len(forks) == report["mixedness"]["n_checks"]
        assert replayed == [3] * len(forks)
        assert all(f.transcript.round_trips() == 0 for f in forks)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reference_audit(self.CIRC, EPS_M2, seed=4), sort_keys=True)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2])
    @pytest.mark.parametrize("circ", [
        Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(-0.9, 0))),
        Circuit(1, (sv.rz(1.234, 0), sv.rz(-2.5, 0))),
        Circuit(2, (sv.h(0), sv.rz(1.1, 1), sv.measure(0), sv.h(0))),
    ], ids=["h-cz-rz", "two-rz", "mid-measure"])
    def test_report_matches_reference_audit(self, circ, epsilon, seed):
        assert json.dumps(audit_circuit(circ, epsilon, seed),
                          sort_keys=True) == json.dumps(
            reference_audit(circ, epsilon, seed), sort_keys=True)

    def test_forks_record_what_whole_circuit_replays_record(self):
        # rz(-0.9) has odd half-turn parity and swaps its working qubit,
        # here in |+>, into transit in digit block 1: a checkpoint taken
        # on the wrong side of the parity Z shows in the densities
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.h(1), sv.rz(-0.9, 1),
                           sv.rz(2.2, 0)))
        assert_replays_match_whole_circuit(circ, EPS_M2, 4)

    def test_deep_forks_record_what_whole_circuit_replays_record(self):
        # nine digit blocks: forks re-run rounds of block 2 and of later
        # blocks from the split pair, which carries the rounds run since
        # the split
        circ = Circuit(1, (sv.h(0), sv.rz(3.992766291758974, 0)))
        assert precision_bits(1e-2) == 9
        assert assert_replays_match_whole_circuit(circ, 1e-2, 628519429) == 208
        assert audit_circuit(circ, 1e-2, 628519429)["pass"] is True

    def test_one_server_per_protocol_run(self, monkeypatch):
        built = []
        server = protocol.BlindServer

        def counting_server(*args, **kwargs):
            built.append(args)
            return server(*args, **kwargs)

        monkeypatch.setattr(protocol, "BlindServer", counting_server)
        report = audit_circuit(self.CIRC, EPS_M2, seed=4)
        assert report["mixedness"]["n_checks"] == 18
        # the baseline's server serves every fork, the control's replays too
        assert len(built) == 1

    def test_replay_refuses_a_label_that_does_not_pad_the_message(self):
        base = KeptRun(self.CIRC, EPS_M2, seed=4)
        with pytest.raises(ValueError):
            base.replay(0, "gate3:m2:k1", [(1, 1)])
        with pytest.raises(ValueError):
            base.replay(1, "gate0:slot1", [(1, 1)])
        with pytest.raises(ValueError, match="at least one pair"):
            base.replay(0, "gate0:slot1", [])


class TestLeanReplays:
    """A replayed pair runs its round and nothing else: the run's own pad,
    round trip or ladder under the pinned key; it records nothing."""

    @pytest.mark.parametrize("circ, epsilon", [
        (Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1), sv.h(1))), 1e-2),
        # M = 60: the ladder's 1829 rounds run in two chunks
        (Circuit(1, (sv.rz(0.7, 0),)), PI / 2**60),
    ], ids=["h-cz-rz-h", "two-ladder-chunks"])
    def test_a_replayed_pair_runs_only_its_round(self, monkeypatch, circ,
                                                 epsilon):
        # the run's rounds, which the audit's own run makes again
        replayed = [(rnd, label) for rnd in KeptRun(circ, epsilon, 0).rounds
                    for _, label in rnd.pad_labels]
        forks, calls = [], collections.defaultdict(list)

        def watch(cls, name):
            method = getattr(cls, name)

            def watched(self, *args, **kwargs):
                got = method(self, *args, **kwargs)
                calls[self].append((name, args, got))
                return got

            monkeypatch.setattr(cls, name, watched)

        for name in ("pad", "round_trip", "ladder", "_apply"):
            watch(Session, name)
        watch(KeySource, "pad_pair")
        fork = Session.fork
        monkeypatch.setattr(Session, "fork",
                            lambda self: forks.append(fork(self)) or forks[-1])
        # every replay the audit makes, one fork per label
        payload_mixedness(circ, epsilon, 0)
        assert len(forks) == len(replayed)
        ms = set()
        for fork, (rnd, label) in zip(forks, replayed):
            # the fork records no round, tag or wire
            t = fork.transcript
            assert t.round_trips() == 0 and not (t.tags or t._wires)
            # the client's swaps and pads alone touch the fork's state: no
            # server gate is applied after the reply
            assert {args[0].kind.value for name, args, _ in calls[fork]
                    if name == "_apply"} <= {"x", "z", "swap"}
            names = [name for name, _, _ in calls[fork] if name != "_apply"]
            if len(rnd.transmitted) > 1:
                assert names == ["pad", "round_trip"] * 3
            else:
                assert names == ["ladder"] * 3
                ms.add(label.split(":")[1])
            # the label is drawn once per pair, on the fork's key source,
            # under each pinned pair in turn
            own = KeySource(0).pad_pair(label)
            assert [got for _, (lbl,), got in calls[fork.keys]
                    if lbl == label] == [p for p in ALL_PAIRS if p != own]
        if epsilon < 1e-9:
            assert ms == {f"m{m}" for m in range(2, 61)}


def assert_replays_match_whole_circuit(circ, epsilon, seed,
                                      extractor="floor") -> int:
    """Replay every pad label of the seeded run under all four pairs, in
    one ``replay`` call, and require the baseline's rounds before the
    label's, then each replayed round, to equal a whole-circuit replay's,
    bit for bit; return the number of replayed rounds."""
    base = KeptRun(circ, epsilon, seed, extractor)
    rounds = base.rounds
    n_replays = 0
    for i, rnd in enumerate(rounds):
        for _, label in rnd.pad_labels:
            replays = base.replay(i, label, ALL_PAIRS)
            assert len(replays) == len(ALL_PAIRS)
            for pair, replay in zip(ALL_PAIRS, replays):
                # pinning a label changes no round before its own
                got = rounds[:i] + [replay]
                want = run_pinned(circ, epsilon, seed, {label: pair},
                                  extractor=extractor).rounds[:i + 1]
                assert len(want) == i + 1
                n_replays += 1
                for a, b in zip(got, want):
                    assert (a.tag, a.transmitted, a.pad_labels) == (
                        b.tag, b.transmitted, b.pad_labels)
                    for x, y in ((a.sent, b.sent), (a.received, b.received)):
                        assert np.array_equal(x, y)
                        for wire in a.transmitted:
                            assert np.array_equal(a.wire_state(x, wire),
                                                  b.wire_state(y, wire))
    return n_replays


def rz_audit_round_trips(n_rz: int, epsilon: float) -> int:
    """Round trips of an exhaustive audit of ``n_rz`` rz gates, in closed form.

    The baseline runs M(M+1)/2 rounds per rz.  Each label's one replay
    runs the one round its label pads once for each of the other three
    pairs: the three dummy slots of digit block 1 and all M(M+1)/2 digit
    rounds, 3 + M(M+1)/2 rounds.  The negative control runs nothing of its own: it
    reads each label's (0, 0) replay, so no second run of the circuit is
    counted.
    """
    m_bits = precision_bits(epsilon)
    run = m_bits * (m_bits + 1) // 2
    fork_rounds = 3 + run
    return n_rz * (run + 3 * fork_rounds)


class TestAuditCost:
    @pytest.mark.parametrize("n_rz", [1, 2, 4, 8])
    def test_round_trips_grow_linearly(self, monkeypatch, n_rz):
        # the run and every replay send each round they run through a
        # round trip or a ladder step, one round or a digit block at a time
        sent = []
        round_trip, ladder = Session.round_trip, Session.ladder

        def counting_round_trip(self, *args):
            sent.append(len(densities := round_trip(self, *args)) // 2)
            return densities

        def counting_ladder(self, *args):
            sent.append(len((got := ladder(self, *args))[0]) // 2)
            return got

        monkeypatch.setattr(Session, "round_trip", counting_round_trip)
        monkeypatch.setattr(Session, "ladder", counting_ladder)
        circ = Circuit(1, tuple(sv.rz(0.3 + 0.7 * g, 0) for g in range(n_rz)))
        report = audit_circuit(circ, 1e-1, seed=2)
        assert report["pass"] is True
        assert sum(sent) == rz_audit_round_trips(n_rz, 1e-1)

    def test_full_register_audit_passes(self):
        # 8 working qubits and the four slots fill all 12 wires
        circ = Circuit(8, (sv.h(0), sv.cz(3, 7), sv.rz(1.3, 7), sv.h(5)))
        report = audit_circuit(circ, 1e-1, seed=3)
        assert report["pass"] is True
        assert report["mixedness"]["worst_distance"] < 1e-10


class TestAuditMemory:
    def test_peak_grows_at_most_half_a_kib_per_round_trip(self):
        # each step is checked as the run makes it and dropped, so the
        # audit's peak does not grow with the rounds it has checked
        circ = Circuit(1, (sv.h(0), sv.rz(0.7, 0)))
        audit_circuit(circ, 0.1, seed=1)  # fill the bounded caches
        peaks, trips = {}, {}
        for m_bits in (60, 100):
            gc.collect()
            tracemalloc.start()
            try:
                report = audit_circuit(circ, PI / 2**m_bits, seed=1)
                peaks[m_bits] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["pass"] is True
            trips[m_bits] = report["round_trips"]
        assert trips == {60: 1 + 60 * 61 // 2, 100: 1 + 100 * 101 // 2}
        growth = (peaks[100] - peaks[60]) / (trips[100] - trips[60])
        assert growth <= 512, f"{growth:.0f} B per round trip"


def dist_from_mixed(rho) -> float:
    """Trace distance of one 2x2 density from I/2, solved on its own."""
    eigs = np.linalg.eigvalsh(rho - np.eye(2) / 2)
    return float(0.5 * np.sum(np.abs(eigs)))


def reference_audit(circuit, epsilon, seed):
    """The exhaustive audit report from whole-circuit replays.

    Every pad label is replayed from |0...0> under all four pairs, with no
    fork and no reuse of the baseline, and the two stored wire densities
    are averaged in pair order.  The negative control reads each wire's
    replay under (0, 0), the wire sent unpadded.  Each distance, the
    control's too, comes from its own eigen-solve, in round order.  Every
    transmitted wire must carry a pad label and no label pads two
    (round, wire)s, so nothing is uncovered or reused, and the mixedness
    check passes within the exact twirl's 1e-10.
    """
    base = run_pinned(circuit, epsilon, seed)
    rounds = base.rounds
    worst, worst_label, inbound_worst, n_checks = 0.0, None, 0.0, 0
    control = 0.0
    for i, rnd in enumerate(rounds):
        for wire, label in rnd.pad_labels:
            replays = [run_pinned(circuit, epsilon, seed,
                                  {label: pair}).rounds[i]
                       for pair in ALL_PAIRS]
            avg_out = sum(r.wire_state(r.sent, wire) for r in replays) / 4.0
            avg_in = sum(r.wire_state(r.received, wire)
                         for r in replays) / 4.0
            n_checks += 1
            dist = dist_from_mixed(avg_out)
            if dist > worst:
                worst, worst_label = dist, label
            inbound_worst = max(inbound_worst, dist_from_mixed(avg_in))
            bare = replays[ALL_PAIRS.index((0, 0))]
            control = max(control,
                          dist_from_mixed(bare.wire_state(bare.sent, wire)))
    mixed = {
        "mode": "exhaustive",
        "n_messages": len(rounds),
        "n_checks": n_checks,
        "worst_distance": worst,
        "worst_label": worst_label,
        "inbound_worst_distance": inbound_worst,
        "tolerance": 1e-10,
        "uncovered": [],
        "reused": [],
        "pass": worst <= 1e-10,
    }
    caps = capability_confinement(base.transcript)
    view = classical_view(base.transcript)
    control_ok = control >= audit.NEGATIVE_CONTROL_THRESHOLD
    return {
        "version": 5,
        "epsilon": epsilon,
        "seed": seed,
        "precision_bits": precision_bits(epsilon),
        "extractor": "floor",
        "n_gates": len(circuit.ops),
        "round_trips": base.transcript.round_trips(),
        "rounds_per_gate": count_rounds(base.transcript),
        "classical_view_digest": view_digest(view),
        "classical_view": list(view),
        "capabilities": caps,
        "mixedness": mixed,
        "negative_control": {
            "max_distance": control,
            "threshold": audit.NEGATIVE_CONTROL_THRESHOLD,
            "pass": control_ok,
        },
        "pass": mixed["pass"] and control_ok and caps["pass"],
    }


class TestNegativeControl:
    def test_unpadded_traffic_is_far_from_mixed(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 0)))
        _, control, _ = payload_mixedness(circ, EPS_M2, 7)
        assert control >= 0.4

    def test_even_a_single_block_leaks_without_pads(self):
        report = audit_circuit(Circuit(1, (sv.h(0),)), EPS_M2, seed=8)
        assert report["negative_control"]["max_distance"] >= 0.4
        assert report["negative_control"]["pass"] is True

    def test_control_catches_an_auditor_that_sees_only_mixed_states(
            self, monkeypatch):
        # every wire state reads I/2: the twirl passes vacuously, and only
        # the control can tell
        monkeypatch.setattr(Round, "wire_state",
                            lambda self, density, wire: np.broadcast_to(
                                np.eye(2) / 2, density.shape[:-2] + (2, 2)))
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 0)))
        report = audit_circuit(circ, EPS_M2, seed=7)
        assert report["mixedness"]["pass"] is True
        assert report["negative_control"]["max_distance"] == 0.0
        assert report["negative_control"]["pass"] is False
        assert report["pass"] is False


class TestReport:
    def test_report_is_deterministic_json(self):
        circ = Circuit(2, (sv.h(0), sv.rz(1.1, 1)))
        a = audit_circuit(circ, EPS_M2, seed=9)
        b = audit_circuit(circ, EPS_M2, seed=9)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["pass"] is True
        assert a["version"] == 5

    def test_round_accounting(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.3, 0),
                           sv.measure(1)))
        res = run_protocol(circ, EPS_M3, seed=10)
        rows = count_rounds(res.transcript)
        assert [(r["kind"], r["rounds"]) for r in rows] == [
            ("h", 1), ("cz", 1), ("rz", 6), ("measure", 0)]
        report = audit_circuit(circ, EPS_M3, seed=10)
        assert report["round_trips"] == 8

    def test_classical_fields_match_the_version_1_report(self):
        # pads and outcomes changed in version 2; what the server sees and
        # the round counts did not.  Literals are the version 1 report's.
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 0),
                           sv.rz(-1.3, 1), sv.measure(0)))
        report = audit_circuit(circ, EPS_M3, seed=3)
        ladder = ['{"k":1,"kind":"block"}', '{"k":2,"kind":"round"}',
                  '{"k":1,"kind":"round"}', '{"k":3,"kind":"round"}',
                  '{"k":2,"kind":"round"}', '{"k":1,"kind":"round"}']
        assert report["classical_view"] == [
            '{"kind":"block"}', '{"kind":"block"}', *ladder, *ladder]
        assert report["classical_view_digest"] == (
            "36e1d3c3c07df6d4560cf541da444cb38130b9d9676240b5023c6a1625a1da9e")
        assert report["round_trips"] == 14
        assert report["rounds_per_gate"] == [
            {"gate": 0, "kind": "h", "rounds": 1},
            {"gate": 1, "kind": "cz", "rounds": 1},
            {"gate": 2, "kind": "rz", "rounds": 6},
            {"gate": 3, "kind": "rz", "rounds": 6},
            {"gate": 4, "kind": "measure", "rounds": 0},
        ]
        assert report["pass"] is True

    def test_report_flags_unpadded_failure_mode(self):
        # under a (0, 0) pad the traffic is far from mixed: the negative
        # control's distance must clear the threshold the report gates on
        circ = Circuit(1, (sv.h(0),))
        report = audit_circuit(circ, EPS_M2, seed=11)
        assert report["negative_control"]["max_distance"] >= 0.4


class TestCapabilityConfinement:
    def test_full_run_stays_confined(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1),
                           sv.measure(0)))
        res = run_protocol(circ, EPS_M2, seed=3)
        caps = capability_confinement(res.transcript)
        assert caps["pass"] is True
        assert set(caps["client_kinds"]) <= {"x", "z", "swap", "measure"}
        assert caps["server_kinds"] == ["cz", "h", "rz"]

    def test_out_of_band_unitary_is_flagged(self):
        res = run_protocol(Circuit(1, (sv.h(0),)), EPS_M2, seed=3)
        res.transcript.client_op_kinds.append("h")
        caps = capability_confinement(res.transcript)
        assert caps["pass"] is False

    def test_report_carries_capability_audit(self):
        # even a lone rotation opens with the uniform four-slot block
        report = audit_circuit(Circuit(1, (sv.rz(0.4, 0),)), EPS_M2, seed=5)
        assert report["capabilities"]["pass"] is True
        assert report["capabilities"]["server_kinds"] == ["cz", "h", "rz"]
