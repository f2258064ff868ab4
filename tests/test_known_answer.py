"""Known-answer bytes: `blindqc run` and `blindqc audit` on one fixed circuit.

The circuit exercises every delegation path: an `h` and a `cz` on the
uniform block, a negative `rz` whose half-turn count is odd (so the
parity Z fires), a second `rz`, and a client-side `measure`.  Any
reordering of a single client operation changes the transcript digest,
so these hashes guard the executor against silent behaviour changes.
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


def _report_sha256(tmp_path, argv) -> str:
    src = tmp_path / "pinned.bqc"
    src.write_text(CIRCUIT)
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
