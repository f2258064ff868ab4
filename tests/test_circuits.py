"""Circuit text format: parsing, validation, round trips."""

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.circuits import Circuit, CircuitParseError, dumps, parse
import oracles

GOOD = """\
version 1
qubits 3
# prepare
h 0
cx 0 1
rz 2 0.7853981633974483
ccx 0 1 2
swap 1 2   # trailing comment
measure 2
"""


def test_parse_accepts_the_reference_file():
    c = parse(GOOD)
    assert c.n_qubits == 3
    assert [op.kind.value for op in c.ops] == [
        "h", "cx", "rz", "ccx", "swap", "measure"]
    assert c.ops[2].angle == pytest.approx(0.7853981633974483)
    assert oracles.gate_counts(c)["cx"] == 1
    assert oracles.has_measurements(c)


def test_round_trip_preserves_everything():
    c = parse(GOOD)
    assert parse(dumps(c)) == c


def test_rz_angle_survives_at_full_precision():
    c = Circuit(1, (sv.rz(1.0 / 3.0, 0),))
    assert parse(dumps(c)).ops[0].angle == 1.0 / 3.0


class TestParseErrors:
    def _err(self, text):
        with pytest.raises(CircuitParseError) as exc:
            parse(text)
        return str(exc.value)

    def test_missing_version(self):
        assert "version" in self._err("qubits 2\nh 0\n")

    def test_unsupported_version(self):
        assert "version 2" in self._err("version 2\nqubits 1\n")

    def test_missing_qubits(self):
        assert "qubits" in self._err("version 1\nh 0\n")

    def test_unknown_gate_reports_line(self):
        assert "line 3" in self._err("version 1\nqubits 1\nfoo 0\n")

    def test_wrong_arity(self):
        msg = self._err("version 1\nqubits 2\ncx 0\n")
        assert "line 3" in msg and "cx" in msg

    def test_rz_needs_angle(self):
        assert "rz" in self._err("version 1\nqubits 1\nrz 0\n")

    def test_bad_angle(self):
        assert "angle" in self._err("version 1\nqubits 1\nrz 0 up\n")

    def test_non_finite_angle(self):
        assert "finite" in self._err("version 1\nqubits 1\nrz 0 nan\n")

    def test_qubit_out_of_range(self):
        assert "out of range" in self._err("version 1\nqubits 2\nh 5\n")

    def test_duplicate_qubits(self):
        assert "line 3" in self._err("version 1\nqubits 2\ncx 1 1\n")

    def test_empty_file(self):
        assert "version" in self._err("")

    def test_qubit_count_cap(self):
        assert "1..12" in self._err("version 1\nqubits 13\n")


def test_circuit_rejects_out_of_range_ops():
    with pytest.raises(ValueError):
        Circuit(1, (sv.h(1),))


def test_raw_matrix_gates_do_not_serialize():
    c = Circuit(1, (sv.u(np.eye(2, dtype=complex), 0),))
    with pytest.raises(ValueError):
        dumps(c)
