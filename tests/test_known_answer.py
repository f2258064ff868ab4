"""Known-answer bytes: `blindqc run` and `blindqc audit` on one fixed circuit.

The circuit exercises every delegation path: an `h` and a `cz` on the
uniform block, a negative `rz` whose half-turn count is odd (so the
parity Z fires), a second `rz`, and a client-side `measure`.  Any
reordering of a single client operation changes the transcript digest,
so these hashes guard the executor against silent behaviour changes.

A second, three-qubit circuit puts its `h`, `cz` and lowered `swap` on
non-adjacent wires and adds a `t`, so the protocol's shared x, z, h, cz and
swap ops are drawn for many wire pairs.

A third, eight-qubit circuit fills the register cap (8 working wires and
the four slots) and at epsilon 1e-6 runs 22 digit blocks per `rz`, 511
round trips in all, so the pins cover the full register and long ladders.

One more audit of the first circuit runs at epsilon 5e-14 (M = 46), where
each rz ladder takes two chunks.
"""

import hashlib

import pytest

from blindqc.cli import EXIT_OK, main

CIRCUIT = "version 1\nqubits 2\nh 0\ncz 0 1\nrz 1 -2.6\nrz 0 0.7\nmeasure 1\n"

RUN_SHA256 = {
    "floor": "e10be084b1cb5b64515646c648d157389677fbba428fa8a63bb2e6b81a29ab72",
    "balanced": "a84c15c9eacb92f08414bc6b3d6a4f1def8270a84563845374af38d35e35e4d5",
}
AUDIT_SHA256 = "72f8098d3ceb8f1d110a0013accd0a4a5cbd02c8295e111528a4cd198f5fec7a"
# the signed-digit audit: its ladder replays run negative digits
BALANCED_AUDIT_SHA256 = (
    "782a81877b6db200dd49dd109e1e76a67c6efa038c7d08e3016addcf7e116330")
# at epsilon 5e-14 (M = 46) each rz ladder runs as two chunks, blocks
# 2..45 then block 46, so the audit's per-step check spans both
LONG_AUDIT_SHA256 = (
    "ae61bdc4ef1428d0f85bff669ceedfcc3e1db699d9beb9c1cc04ae0796cfa510")

WIDE_CIRCUIT = ("version 1\nqubits 3\nh 2\ncz 0 2\nt 1\nswap 2 0\n"
                "rz 0 -1.9\ncz 2 1\nmeasure 2\n")

WIDE_RUN_SHA256 = {
    "floor": "83db92667c112390653d199d1b798e85e317293d80949a268da6c13757e1665e",
    "balanced": "7b3c851d4865808f8219a90a6b814022bb974e9612565b0484c7340ba80a5710",
}
WIDE_AUDIT_SHA256 = "4f6d6156b7b1664ae41dd9fa0d15ccb436abd1a50280406dee5e7563cbafd6f0"

FULL_CIRCUIT = ("version 1\nqubits 8\nh 0\nh 7\ncz 0 7\nrz 3 2.1\ncz 2 5\n"
                "rz 7 -0.4\nh 4\nmeasure 5\n")

FULL_RUN_SHA256 = {
    "floor": "4be0c5c713dd8accd7bdab6da4720f93332be1a762ec349c09ece25e9c3b3906",
    "balanced": "af82e68314587df242736249f37c087cf186648ffa7aea3bc243fcd70260030e",
}
FULL_AUDIT_SHA256 = "0c4cbfbdd96601298f93521c869754b8a0fc933a4093ad87c4b67661189439c5"


def _report_sha256(tmp_path, argv, circuit=CIRCUIT) -> str:
    src = tmp_path / "pinned.bqc"
    src.write_text(circuit)
    out = tmp_path / "report.out"
    assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("extractor", sorted(RUN_SHA256))
def test_run_report_bytes(tmp_path, extractor):
    got = _report_sha256(tmp_path, ["run", "--epsilon", "1e-2", "--seed", "11",
                                    "--extractor", extractor])
    assert got == RUN_SHA256[extractor]


def test_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--epsilon", "1e-2",
                                    "--seed", "11"])
    assert got == AUDIT_SHA256


def test_balanced_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--extractor", "balanced",
                                    "--epsilon", "1e-2", "--seed", "11"])
    assert got == BALANCED_AUDIT_SHA256


def test_two_chunk_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--epsilon", "5e-14",
                                    "--seed", "11"])
    assert got == LONG_AUDIT_SHA256


@pytest.mark.parametrize("extractor", sorted(WIDE_RUN_SHA256))
def test_three_qubit_run_report_bytes(tmp_path, extractor):
    got = _report_sha256(tmp_path, ["run", "--epsilon", "1e-2", "--seed", "5",
                                    "--extractor", extractor], WIDE_CIRCUIT)
    assert got == WIDE_RUN_SHA256[extractor]


def test_three_qubit_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--epsilon", "1e-2", "--seed", "5"],
                         WIDE_CIRCUIT)
    assert got == WIDE_AUDIT_SHA256


@pytest.mark.parametrize("extractor", sorted(FULL_RUN_SHA256))
def test_full_register_run_report_bytes(tmp_path, extractor):
    got = _report_sha256(tmp_path, ["run", "--epsilon", "1e-6", "--seed", "3",
                                    "--extractor", extractor], FULL_CIRCUIT)
    assert got == FULL_RUN_SHA256[extractor]


def test_full_register_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--epsilon", "1e-6", "--seed", "11"],
                         FULL_CIRCUIT)
    assert got == FULL_AUDIT_SHA256
