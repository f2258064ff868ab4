"""Known-answer bytes: `blindqc run` and `blindqc audit` on one fixed circuit.

The circuit exercises every delegation path: an `h` and a `cz` on the
uniform block, a negative `rz` whose half-turn count is odd (so the
parity Z fires), a second `rz`, and a client-side `measure`.  Any
reordering of a single client operation changes the transcript digest,
so these hashes guard the executor against silent behaviour changes.

A second, three-qubit circuit puts its `h`, `cz` and lowered `swap` on
non-adjacent wires and adds a `t`, so the protocol's shared x, z, h, cz and
swap ops are drawn for many wire pairs.

A third, eight-qubit circuit fills the whole 12-wire register (4096
amplitudes) and at epsilon 1e-6 runs 22 digit blocks per `rz`, 511 round
trips in all, so the pins cover the full register and long ladders.
"""

import hashlib

import pytest

from blindqc.cli import EXIT_OK, main

CIRCUIT = "version 1\nqubits 2\nh 0\ncz 0 1\nrz 1 -2.6\nrz 0 0.7\nmeasure 1\n"

RUN_SHA256 = {
    "floor": "240ee7f81eb3755aab7375618b54d67f28ce69e4c4f6c2089ff21e1876d927be",
    "balanced": "816ed6c2788f1ba654f980e0831bdbc3dfc7428973509747943be43d4abaf2cb",
}
AUDIT_SHA256 = "c008fcf17c722122f7fdc016cd7f74de88ba3a06f4bd4518f189e02360c3202e"

WIDE_CIRCUIT = ("version 1\nqubits 3\nh 2\ncz 0 2\nt 1\nswap 2 0\n"
                "rz 0 -1.9\ncz 2 1\nmeasure 2\n")

WIDE_RUN_SHA256 = {
    "floor": "55ecd222ebe9d5cc48cbd042a7d3f90e9be9941fa380cf2e82c4939658cd529d",
    "balanced": "e238d2bfca58421e92f7165c089ba02a0d93d201c6183216f74a9592ac3f2e08",
}
WIDE_AUDIT_SHA256 = "2f9193c8b91e91c5e185e8c2c8a6bc4eef81ff886089ddea76684a6a8c79fd8d"

FULL_CIRCUIT = ("version 1\nqubits 8\nh 0\nh 7\ncz 0 7\nrz 3 2.1\ncz 2 5\n"
                "rz 7 -0.4\nh 4\nmeasure 5\n")

FULL_RUN_SHA256 = {
    "floor": "f1bd168d671bf23adcfdc8c34dadfda6416dc6f745c5c42c25e5fab78e0008fc",
    "balanced": "a268e3b0c93d69febfaba98b86e4018440dbbe623e81b985061520c80809f7d3",
}
FULL_AUDIT_SHA256 = "0338d73c208a70866f14e0b53e4904dcab830bd59830edc3619a6563fa7b8282"


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
