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

Run-path mutants break the rz ladder of the run ``run_protocol`` makes
and leave its labels distinct.  The audit certifies that same run, so
the twirl over each label's replays must see the broken pads.

The replay mutant leaves the run alone and breaks the stacked replay
of a label's pairs: every register is padded under the first pair.
"""

import re

import pytest

from blindqc import protocol
from blindqc import statevec as sv
from blindqc.audit import audit_circuit
from blindqc.circuits import Circuit
from blindqc.protocol import run_protocol
from blindqc.session import KeySource, Session, Transcript

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


RUN_PATH_MUTANTS = {"unpadded-ladder": unpadded_ladder,
                    "first-pad-per-block": first_pad_per_block}


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


def first_pair_for_every_register(monkeypatch) -> None:
    """A fork's stacked registers all draw from the first register's key
    source, so each is padded under the first pair."""
    pad = Session.pad

    def first_pair_pad(self, pad_labels):
        stack = self.stack_keys
        self.stack_keys = stack[:1]
        try:
            pad(self, pad_labels)
        finally:
            self.stack_keys = stack

    monkeypatch.setattr(Session, "pad", first_pair_pad)


def test_stacked_pads_under_one_pair_fail_the_audit(monkeypatch):
    plain = run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest()
    first_pair_for_every_register(monkeypatch)
    # the run is the one ``blindqc run`` makes; only the replays break
    assert run_protocol(CIRCUIT, EPSILON, SEED).transcript.digest() == plain
    report = audit_circuit(CIRCUIT, EPSILON, SEED)
    mixed = report["mixedness"]
    assert mixed["reused"] == [] and mixed["uncovered"] == []
    assert mixed["worst_distance"] > 0.1
    assert mixed["pass"] is False
    assert report["pass"] is False
