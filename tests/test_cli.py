"""Command-line interface: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blindqc.circuits import parse
from blindqc.cli import (
    EXIT_AUDIT_FAILED,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_REGISTER_CAP,
    EXIT_UNSUPPORTED_GATE,
    main,
)
from blindqc.lowering import first_undelegable

SMALL = "version 1\nqubits 2\nh 0\ncx 0 1\nrz 0 0.5\nmeasure 1\n"
LOWERED = "version 1\nqubits 2\nh 0\ncz 0 1\nrz 1 -1.25\n"


@pytest.fixture
def small_path(tmp_path):
    p = tmp_path / "small.bqc"
    p.write_text(SMALL)
    return str(p)


@pytest.fixture
def lowered_path(tmp_path):
    p = tmp_path / "low.bqc"
    p.write_text(LOWERED)
    return str(p)


class TestLower:
    def test_lower_writes_delegable_circuit(self, small_path, capsys):
        assert main(["lower", small_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert first_undelegable(parse(out)) is None

    def test_lower_to_file(self, small_path, tmp_path):
        out = tmp_path / "out.bqc"
        assert main(["lower", small_path, "--out", str(out)]) == EXIT_OK
        assert first_undelegable(parse(out.read_text())) is None


class TestRun:
    def test_report_shape(self, lowered_path, capsys):
        code = main(["run", lowered_path, "--epsilon", "0.3926990816987241",
                     "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("blindqc run report v6\n")
        # h and cz cost one trip each, rz costs M(M+1)/2 = 6 at M = 3
        assert "round-trips: 8" in out
        assert "transcript-digest: " in out
        assert "|00>" in out and "|11>" in out

    def test_byte_identical_reports_for_same_seed(self, small_path, capsys):
        assert main(["run", small_path, "--seed", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["run", small_path, "--seed", "3"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert main(["run", small_path, "--seed", "4"]) == EXIT_OK
        assert capsys.readouterr().out != first

    def test_auto_lowering_is_default(self, small_path):
        assert main(["run", small_path, "--epsilon", "0.4"]) == EXIT_OK

    def test_strict_rejects_unlowered(self, small_path, capsys):
        code = main(["run", small_path, "--strict"])
        assert code == EXIT_UNSUPPORTED_GATE
        assert "cx" in capsys.readouterr().err

    def test_strict_accepts_lowered(self, lowered_path):
        assert main(["run", lowered_path, "--strict",
                     "--epsilon", "0.4"]) == EXIT_OK

    def test_register_cap(self, tmp_path, capsys):
        p = tmp_path / "big.bqc"
        p.write_text("version 1\nqubits 9\nh 0\n")
        assert main(["run", str(p)]) == EXIT_REGISTER_CAP
        assert "cap" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.bqc"
        p.write_text("version 1\nqubits 2\nwarp 0\n")
        assert main(["run", str(p)]) == EXIT_BAD_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.bqc")]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e400"])
    def test_non_finite_epsilon(self, lowered_path, capsys, epsilon):
        code = main(["run", lowered_path, "--epsilon", epsilon])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "epsilon must be positive and finite" in err

    def test_epsilon_too_small_for_a_float_ratio(self, lowered_path, capsys):
        code = main(["run", lowered_path, "--epsilon", "5e-324"])
        assert code == EXIT_BAD_INPUT
        assert "too small" in capsys.readouterr().err

    def test_epsilon_needing_more_digits_than_a_float_holds(self, lowered_path,
                                                            capsys):
        # pi/2e-308 fits a float but needs M = 1024 digit blocks
        code = main(["run", lowered_path, "--epsilon", "2e-308"])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "1024 digit blocks" in err and "Traceback" not in err


class TestAudit:
    def test_exhaustive_audit_passes(self, lowered_path, capsys):
        code = main(["audit", lowered_path, "--epsilon", "0.4", "--seed", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["version"] == 5
        assert report["extractor"] == "floor"
        assert report["mixedness"]["worst_distance"] < 1e-10

    def test_audit_records_its_extractor(self, lowered_path, capsys):
        code = main(["audit", lowered_path, "--epsilon", "0.4", "--seed", "1",
                     "--extractor", "balanced"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["extractor"] == "balanced"

    def test_audit_is_deterministic(self, lowered_path, capsys):
        main(["audit", lowered_path, "--epsilon", "0.4"])
        first = capsys.readouterr().out
        main(["audit", lowered_path, "--epsilon", "0.4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e400"])
    def test_non_finite_epsilon(self, lowered_path, capsys, epsilon):
        code = main(["audit", lowered_path, "--epsilon", epsilon])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "epsilon must be positive and finite" in err

    def test_epsilon_too_small_for_a_float_ratio(self, lowered_path, capsys):
        code = main(["audit", lowered_path, "--epsilon", "5e-324"])
        assert code == EXIT_BAD_INPUT
        assert "too small" in capsys.readouterr().err

    def test_epsilon_needing_more_digits_than_a_float_holds(self, lowered_path,
                                                            capsys):
        # pi/2e-308 fits a float but needs M = 1024 digit blocks
        code = main(["audit", lowered_path, "--epsilon", "2e-308"])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "1024 digit blocks" in err and "Traceback" not in err

    @pytest.mark.parametrize("gates", ["", "measure 0\n"],
                             ids=["no-gates", "measure-only"])
    def test_circuit_delegating_nothing_is_refused(self, tmp_path, capsys,
                                                   gates):
        p = tmp_path / "idle.bqc"
        p.write_text("version 1\nqubits 2\n" + gates)
        assert main(["audit", str(p)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: circuit delegates no gates to audit\n"

    def test_sampled_mode_is_gone(self, lowered_path):
        with pytest.raises(SystemExit) as exc:
            main(["audit", lowered_path, "--mode", "sampled:16"])
        assert exc.value.code == 2

    def test_bad_mode_string(self, lowered_path):
        with pytest.raises(SystemExit) as exc:
            main(["audit", lowered_path, "--mode", "thorough"])
        assert exc.value.code == 2

    def test_exhaustive_mode_option_is_refused(self, lowered_path):
        # the exhaustive check is the audit; no option selects it
        with pytest.raises(SystemExit) as exc:
            main(["audit", lowered_path, "--mode", "exhaustive"])
        assert exc.value.code == 2


class TestCost:
    def test_cost_report(self, small_path, capsys):
        assert main(["cost", small_path, "--epsilon", "1e-2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("blindqc cost report v1\n")
        assert "parametric: 1" in out
        assert "non-parametric: 2" in out
        assert "critical-ratio: 0.158212" in out
        assert "measured-rounds-per-rotation: 45" in out
        assert "interactive-wins: yes" in out

    def test_sweep_csv(self, small_path, capsys):
        assert main(["cost", small_path, "--sweep", "1e-1,1e-2",
                     "--measured"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "epsilon,ratio,c_p,c_np,critical_ratio,measured_rounds" in out
        assert out.count("\n0.1,") == 1

    def test_epsilon_domain_error(self, small_path, capsys):
        assert main(["cost", small_path, "--epsilon", "0.9"]) == EXIT_BAD_INPUT
        assert "1/e" in capsys.readouterr().err

    def test_epsilon_needing_more_digits_than_a_float_holds(self, small_path,
                                                            capsys):
        # the same cap run and audit apply: M = 1024 is refused
        code = main(["cost", small_path, "--epsilon", "2e-308"])
        assert code == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1024 digit blocks" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_circuit_cannot_be_costed(self, tmp_path):
        p = tmp_path / "empty.bqc"
        p.write_text("version 1\nqubits 1\nmeasure 0\n")
        assert main(["cost", str(p)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("command", ["run", "audit", "cost"])
@pytest.mark.parametrize("epsilon", ["-inf", "-1e-3"])
@pytest.mark.parametrize("glued", [False, True])
def test_negative_epsilon_reaches_the_range_check(lowered_path, capsys,
                                                  command, epsilon, glued):
    # argparse alone reads "-inf" and "-1e-3" as options, not as values
    flag = [f"--epsilon={epsilon}"] if glued else ["--epsilon", epsilon]
    assert main([command, lowered_path, *flag]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"epsilon must be positive and finite, got {float(epsilon)!r}"
            in captured.err)


def test_negative_sweep_value_reaches_the_range_check(small_path, capsys):
    assert main(["cost", small_path, "--sweep", "-1e-3,0.1"]) == EXIT_BAD_INPUT
    assert "epsilon must be" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(small_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "blindqc", "cost", small_path],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("blindqc cost report v1\n")
