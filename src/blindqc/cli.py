"""Command-line front end.

Subcommands: ``lower`` rewrites a circuit into the delegable gate set,
``run`` executes a circuit through the delegation protocol, ``audit``
produces the blindness report from exhaustive pad replays, and ``cost``
evaluates the communication cost model.  All reports are versioned and
deterministic: same inputs and seed, same bytes.

Exit codes: 0 success, 1 audit failure, 2 unreadable or malformed
input (including a circuit with no gates to cost or none to delegate
for an audit), 3 gate outside the delegable set under --strict, 4
register over the simulator cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audit import audit_circuit
from .circuits import Circuit, CircuitParseError, dumps, parse
from .costs import (
    baseline_rounds,
    cost_parametric_baseline,
    cost_proposed,
    critical_ratio,
    crossover_holds,
    gate_census,
    interactive_rounds,
    measured_rounds,
    sweep,
    sweep_csv,
)
from .angles import precision_bits
from .lowering import first_undelegable, lower
from .protocol import (
    RegisterCapacityError,
    UnsupportedGateError,
    run_protocol,
)

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED_GATE = 3
EXIT_REGISTER_CAP = 4

EXTRACTORS = ("floor", "balanced")
RUN_REPORT_VERSION = 6
COST_REPORT_VERSION = 1


def _read_circuit(path: str) -> Circuit:
    return parse(Path(path).read_text(encoding="utf-8"))


def _emit(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _prepare(circuit: Circuit, strict: bool) -> Circuit:
    bad = first_undelegable(circuit)
    if bad is None:
        return circuit
    if strict:
        raise UnsupportedGateError(
            f"'{bad.kind.value}' is not delegable and --strict disables lowering"
        )
    return lower(circuit)


def cmd_lower(args) -> int:
    circuit = _read_circuit(args.circuit)
    _emit(args.out, dumps(lower(circuit)))
    return EXIT_OK


def cmd_run(args) -> int:
    circuit = _read_circuit(args.circuit)
    lowered = _prepare(circuit, args.strict)
    res = run_protocol(lowered, args.epsilon, args.seed,
                       extractor=args.extractor)
    lines = [
        f"blindqc run report v{RUN_REPORT_VERSION}",
        f"circuit: {circuit.n_qubits} qubits, {len(circuit.ops)} gates",
        f"lowered: {len(lowered.ops)} gates",
        f"epsilon: {args.epsilon!r}",
        f"precision-bits: {precision_bits(args.epsilon)}",
        f"extractor: {args.extractor}",
        f"seed: {args.seed}",
        f"round-trips: {res.transcript.round_trips()}",
        f"transcript-digest: {res.transcript.digest()}",
    ]
    for j in sorted(res.outcomes):
        wire = lowered.ops[j].qubits[0]
        lines.append(f"outcome: gate {j} wire {wire} -> {res.outcomes[j]}")
    lines.append("working-state:")
    n = res.working_state.n_qubits
    for i, amp in enumerate(res.working_state.amps):
        ket = format(i, f"0{n}b")
        lines.append(f"|{ket}> {amp.real:+.12f} {amp.imag:+.12f}j")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_audit(args) -> int:
    circuit = _read_circuit(args.circuit)
    lowered = _prepare(circuit, args.strict)
    report = audit_circuit(lowered, args.epsilon, args.seed,
                           extractor=args.extractor)
    _emit(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report["pass"] else EXIT_AUDIT_FAILED


def cmd_cost(args) -> int:
    circuit = _read_circuit(args.circuit)
    n_p, n_np = gate_census(circuit)
    total = n_p + n_np
    if total == 0:
        raise CircuitParseError("circuit has no gates to cost")
    ratio = n_p / total
    # first, so an epsilon no run accepts gets the message run and audit give
    per_rotation = measured_rounds(args.epsilon)
    lines = [
        f"blindqc cost report v{COST_REPORT_VERSION}",
        f"circuit: {circuit.n_qubits} qubits, {len(circuit.ops)} gates",
        f"parametric: {n_p}",
        f"non-parametric: {n_np}",
        f"ratio: {ratio:.6g}",
        f"epsilon: {args.epsilon!r}",
        f"baseline-per-rotation: {baseline_rounds(args.epsilon):.6g}",
        f"interactive-per-gate: {interactive_rounds(args.epsilon):.6g}",
        f"baseline-total: {cost_parametric_baseline(n_p, n_np, args.epsilon):.6g}",
        f"interactive-total: {cost_proposed(n_p, n_np, args.epsilon):.6g}",
        f"critical-ratio: {critical_ratio(args.epsilon):.6g}",
        f"interactive-wins: {'yes' if crossover_holds(ratio, args.epsilon) else 'no'}",
        f"measured-rounds-per-rotation: {per_rotation}",
    ]
    text = "\n".join(lines) + "\n"
    if args.sweep:
        eps_list = [float(tok) for tok in args.sweep.split(",") if tok]
        rows = sweep(eps_list, ratio, measured=args.measured)
        text += "\n" + sweep_csv(rows)
    _emit(args.out, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindqc",
        description="simulate and audit blind delegated circuit execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lower = sub.add_parser("lower", help="rewrite into {h, cz, rz}")
    p_lower.add_argument("circuit")
    p_lower.add_argument("--out")
    p_lower.set_defaults(func=cmd_lower)

    p_run = sub.add_parser("run", help="execute through the protocol")
    p_run.add_argument("circuit")
    p_run.add_argument("--epsilon", type=float, default=1e-2)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--extractor", choices=EXTRACTORS, default="floor")
    p_run.add_argument("--strict", action="store_true",
                       help="reject circuits outside {h, cz, rz, measure}")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="blindness report (JSON)")
    p_audit.add_argument("circuit")
    p_audit.add_argument("--epsilon", type=float, default=1e-2)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--extractor", choices=EXTRACTORS, default="floor")
    p_audit.add_argument("--strict", action="store_true")
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=cmd_audit)

    p_cost = sub.add_parser("cost", help="communication cost analysis")
    p_cost.add_argument("circuit")
    p_cost.add_argument("--epsilon", type=float, default=1e-2)
    p_cost.add_argument("--sweep", help="comma-separated epsilon list")
    p_cost.add_argument("--measured", action="store_true",
                        help="add the realized per-rotation round count")
    p_cost.add_argument("--out")
    p_cost.set_defaults(func=cmd_cost)

    return parser


# options whose value may start with "-" ("-inf", "-1e-3,0.1")
_NUMERIC_OPTIONS = ("--epsilon", "--sweep")


def _glue_numeric_values(argv: list[str]) -> list[str]:
    """``--epsilon VALUE`` as ``--epsilon=VALUE``, likewise ``--sweep``.
    argparse reads only plain negative decimals as values, so ``-inf`` or
    ``-1e-3`` would be taken for an option instead of reaching the range
    check."""
    out: list[str] = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in _NUMERIC_OPTIONS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_numeric_values(argv))
    try:
        return args.func(args)
    except (CircuitParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnsupportedGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_GATE
    except RegisterCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGISTER_CAP


if __name__ == "__main__":
    sys.exit(main())
