"""Known-answer bytes: `blindqc run` and `blindqc audit` on one fixed circuit.

The circuit exercises every delegation path: an `h` and a `cz` on the
uniform block, a negative `rz` whose half-turn count is odd (so the
parity Z fires), a second `rz`, and a client-side `measure`.  Any
reordering of a single client operation changes the transcript digest,
so these hashes guard the executor against silent behaviour changes.

A second, three-qubit circuit puts its `h`, `cz` and lowered `swap` on
non-adjacent wires and adds a `t`, so the protocol's shared x, z, h, cz and
swap ops are drawn for many wire pairs.
"""

import hashlib

import pytest

from blindqc.cli import EXIT_OK, main

CIRCUIT = "version 1\nqubits 2\nh 0\ncz 0 1\nrz 1 -2.6\nrz 0 0.7\nmeasure 1\n"

RUN_SHA256 = {
    "floor": "4fe7623ec8d63e3d2e1228321f2f44cb00673c7035be9669f5ff132fd22dceb9",
    "balanced": "e68e23df2da3789fcc452ead7585c5eccdaa4488d539ace4fce1bef26f61a96c",
}
AUDIT_SHA256 = "c6ab626eee114a7a398b6dc9a7440524d5e9e0f92ad3c06ff2e741809ee0b248"

WIDE_CIRCUIT = ("version 1\nqubits 3\nh 2\ncz 0 2\nt 1\nswap 2 0\n"
                "rz 0 -1.9\ncz 2 1\nmeasure 2\n")

WIDE_RUN_SHA256 = {
    "floor": "fc915d8a5e83869756e099b32a66cf28b0b67025e96c716e586b37768a965bdc",
    "balanced": "d05d042d057b95525ab5aa12a6328ef052aac2c3c07ef50f3e5069270f438a05",
}
WIDE_AUDIT_SHA256 = "63ef4894de28315b3f793c50dc2f5a8b31dba49c2610348b9ab86738594c73d3"


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
                                    "--seed", "11", "--mode", "exhaustive"])
    assert got == AUDIT_SHA256


@pytest.mark.parametrize("extractor", sorted(WIDE_RUN_SHA256))
def test_three_qubit_run_report_bytes(tmp_path, extractor):
    got = _report_sha256(tmp_path, ["run", "--epsilon", "1e-2", "--seed", "5",
                                    "--extractor", extractor], WIDE_CIRCUIT)
    assert got == WIDE_RUN_SHA256[extractor]


def test_three_qubit_exhaustive_audit_bytes(tmp_path):
    got = _report_sha256(tmp_path, ["audit", "--epsilon", "1e-2", "--seed", "5",
                                    "--mode", "exhaustive"], WIDE_CIRCUIT)
    assert got == WIDE_AUDIT_SHA256
