"""Broken protocols the audit must catch.

Label-reuse mutants map pad labels onto fewer labels, so one key pads
several (round, wire)s.  Every wire's marginal still averages to exactly
I/2 under its own label, so the twirl alone passes them; the structural
one-time check (the mixedness section's ``reused``) must fail each one
and name the labels it reuses.

Such a mutant is an idempotent label map ``f``.  It is patched into both
``KeySource.pad_pair``, which then draws the pad of ``f(label)``, and
``Transcript.record``, which then records ``f(label)`` as the wire's pad
label, so the protocol and its transcript agree on the broken keys and
the package's own code stays as it is.

Run-path mutants break the pads of the run ``run_protocol`` makes (a
slot or the rz ladder) and leave its labels distinct.  The audit
certifies that same run, so the twirl over each label's replays must
see the broken pads.

The replay mutant leaves the run alone and breaks the replay of a
label's pairs: every pair is replayed under the first one.

Two mutants leave every wire padded, so the twirl passes them.  A
ladder that skips its zero-digit blocks leaves the working state as it
is; only view invariance catches it, since the number of rounds now
depends on the angle.  A run that skips the parity Z turns the state by
a half turn; the audit certifies blindness, not the result, so it
passes, and only a comparison with a reference simulation sees it.
"""

import dataclasses
import re

import pytest

from blindqc import protocol
from blindqc import statevec as sv
from blindqc.audit import ViewMismatch, audit_circuit, view_invariance
from blindqc.circuits import Circuit
from blindqc.protocol import CheckpointedRun, run_protocol
from blindqc.session import KeySource, Session, Transcript
import oracles

CIRCUIT = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1), sv.h(1)))
EPSILON = 1e-2  # nine digit blocks
SEED = 0


def one_label_per_block(label: str) -> str:
    """All four slots of a block share ``gate{j}:slot1``."""
    return re.sub(r":slot\d+$", ":slot1", label)


def digit_labels_without_m(label: str) -> str:
    """``gate{j}:m{m}:k{k}`` becomes ``gate{j}:k{k}``: one pad covers up to
    M rounds."""
    return re.sub(r":m\d+:", ":", label)


def gate_zero_slots(label: str) -> str:
    """Every gate pads its slots under gate 0's slot labels."""
    return re.sub(r"^gate\d+:slot", "gate0:slot", label)


MUTANTS = {
    "one-label-per-block": (one_label_per_block, [
        "gate0:slot1", "gate1:slot1", "gate2:slot1", "gate3:slot1"]),
    "digit-labels-without-m": (digit_labels_without_m, [
        f"gate2:k{k}" for k in range(1, 9)]),
    "gate-zero-slots": (gate_zero_slots, [
        f"gate0:slot{i}" for i in range(1, 5)]),
}


def patch_labels(monkeypatch, f) -> None:
    """Draw and record every pad under ``f(label)``."""
    pad_pair, record = KeySource.pad_pair, Transcript.record

    def mapped_pad_pair(self, label):
        return pad_pair(self, f(label))

    def mapped_record(self, transmitted, tags, densities):
        tags = [(tag, tuple((wire, f(label)) for wire, label in pad_labels))
                for tag, pad_labels in tags]
        return record(self, transmitted, tags, densities)

    monkeypatch.setattr(KeySource, "pad_pair", mapped_pad_pair)
    monkeypatch.setattr(Transcript, "record", mapped_record)


def test_identity_map_leaves_the_report_as_it_is(monkeypatch):
    # the harness itself changes nothing: the report is the unpatched one
    want = audit_circuit(CIRCUIT, EPSILON, SEED)
    patch_labels(monkeypatch, lambda label: label)
    assert audit_circuit(CIRCUIT, EPSILON, SEED) == want
    assert want["pass"] is True and want["mixedness"]["reused"] == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_label_reuse_fails_the_audit(monkeypatch, name):
    f, reused = MUTANTS[name]
    patch_labels(monkeypatch, f)
    report = audit_circuit(CIRCUIT, EPSILON, SEED)
    mixed = report["mixedness"]
    # each wire alone still twirls to I/2: only the one-time check sees it
    assert mixed["worst_distance"] < 1e-10
    assert mixed["uncovered"] == []
    assert mixed["reused"] == sorted(reused)
    assert mixed["pass"] is False
    assert report["pass"] is False


def unpadded_ladder(monkeypatch) -> None:
    """Every ladder round is planned with pad (0, 0): sent in the clear."""
    plan = protocol.digit_block_plan
    monkeypatch.setattr(protocol, "digit_block_plan",
                        lambda nonzero, negative, pairs: plan(
                            nonzero, negative, [(0, 0)] * len(pairs)))


def first_pad_per_block(monkeypatch) -> None:
    """Every round of a ladder block is padded by the block's first pad."""
    ladder = Session.ladder

    def reusing_ladder(self, transit, blocks, server):
        blocks = [(protocol.digit_block_plan(
            plan.nonzero, plan.negative,
            [self.keys.pad_pair(labels[0])] * len(labels))
                   if len(plan.rounds) > 1 else plan, labels)
                  for plan, labels in blocks]
        return ladder(self, transit, blocks, server)

    monkeypatch.setattr(Session, "ladder", reusing_ladder)


def unpadded_slot(monkeypatch) -> None:
    """``Session.pad`` skips every ``gate{j}:slot2`` label, which the round
    still records: slot 2 goes out in the clear.  The run decrypts it
    under (0, 0), so its result stays right."""
    pad = Session.pad

    def skipping_pad(self, pad_labels):
        skip = [label.endswith(":slot2") for _, label in pad_labels]
        pairs = iter(pad(self, [wl for wl, s in zip(pad_labels, skip)
                                if not s]))
        return [(0, 0) if s else next(pairs) for s in skip]

    monkeypatch.setattr(Session, "pad", skipping_pad)


RUN_PATH_MUTANTS = {"unpadded-ladder": unpadded_ladder,
                    "first-pad-per-block": first_pad_per_block,
                    "unpadded-slot": unpadded_slot}


@pytest.mark.parametrize("name", sorted(RUN_PATH_MUTANTS))
def test_run_path_mutants_fail_the_audit(monkeypatch, name):
    plain = run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest()
    RUN_PATH_MUTANTS[name](monkeypatch)
    # the mutant changes the run ``blindqc run`` makes
    assert run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest() != plain
    report = audit_circuit(CIRCUIT, EPSILON, SEED)
    mixed = report["mixedness"]
    # no label pads twice: the twirl itself sees the broken pads
    assert mixed["reused"] == [] and mixed["uncovered"] == []
    assert mixed["worst_distance"] > 0.1
    assert mixed["pass"] is False
    assert report["pass"] is False


def first_pair_for_every_pair(monkeypatch) -> None:
    """A replay runs every pair of a label under the first one."""
    replay = CheckpointedRun.replay
    monkeypatch.setattr(
        CheckpointedRun, "replay", lambda self, index, label, pairs: replay(
            self, index, label, pairs[:1] * len(pairs)))


def test_stacked_pads_under_one_pair_fail_the_audit(monkeypatch):
    plain = run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest()
    first_pair_for_every_pair(monkeypatch)
    # the run is the one ``blindqc run`` makes; only the replays break
    assert run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest() == plain
    report = audit_circuit(CIRCUIT, EPSILON, SEED)
    mixed = report["mixedness"]
    assert mixed["reused"] == [] and mixed["uncovered"] == []
    assert mixed["worst_distance"] == pytest.approx(0.5)
    assert mixed["pass"] is False
    assert report["pass"] is False


def skipped_zero_digit_blocks(monkeypatch) -> None:
    """The ladder leaves out every digit block m >= 2 whose digit is 0."""
    ladder = Session.ladder
    monkeypatch.setattr(
        Session, "ladder", lambda self, transit, blocks, server: ladder(
            self, transit, [b for b in blocks if b[0].nonzero], server))


def test_skipped_zero_digit_blocks_fail_view_invariance(monkeypatch):
    plain = run_protocol(CIRCUIT, EPSILON, SEED)
    skipped_zero_digit_blocks(monkeypatch)
    # through ``run_protocol`` only: a checkpointed run walks every block
    mutant = run_protocol(CIRCUIT, EPSILON, SEED)
    # a zero digit turns nothing, so the working state is the same ...
    assert oracles.fidelity(mutant.working_state,
                            plain.working_state) == pytest.approx(1.0)
    assert (mutant.transcript.round_trips(),
            plain.transcript.round_trips()) == (24, 48)
    # ... and only the view shows which digits were zero
    other = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.9, 1), sv.h(1)))
    with pytest.raises(ViewMismatch, match="round 3:"):
        view_invariance(CIRCUIT, other, EPSILON, SEED)


def test_skipped_parity_z_passes_the_audit(monkeypatch):
    # the audit certifies blindness, not the result: a run that skips
    # the parity Z still passes it, and only a reference simulation
    # sees the half turn
    circ = Circuit(1, (sv.h(0), sv.rz(-0.9, 0), sv.h(0)))
    digitize = protocol.digitize

    def even_half_turns(*args):
        d = digitize(*args)
        return dataclasses.replace(d, half_turns=d.half_turns & ~1)

    monkeypatch.setattr(protocol, "digitize", even_half_turns)
    assert digitize(-0.9, 1).parity == 1
    assert audit_circuit(circ, EPSILON, SEED)["pass"] is True
    want = oracles.apply(oracles.new_state(1), *circ.ops)
    got = run_protocol(circ, EPSILON, SEED).working_state
    assert 1 - oracles.fidelity(got, want) == pytest.approx(1.0, abs=1e-5)
