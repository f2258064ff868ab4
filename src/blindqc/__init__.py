"""Desk-scale simulator and auditor for blind delegated circuit execution.

A client hides its circuit from the server behind Pauli one-time pads
and an interactive rotation protocol; this package simulates both state
machines exactly (statevectors up to 12 wires), audits what the
server's view reveals, and evaluates the communication-cost crossover
against compile-first baselines.

The names below are the entry points behind the command line; the
building blocks they run on stay in their submodules
(``blindqc.statevec``, ``blindqc.paulis``, ``blindqc.angles``,
``blindqc.session``, ...).  The reference simulator, the key-rule
verifier and the T gadget that the tests compare against live in
``tests/oracles.py``, not in the package.
"""

from .angles import precision_bits
from .audit import audit_circuit, view_invariance
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
from .lowering import lower
from .protocol import RegisterCapacityError, UnsupportedGateError, run_protocol
from .statevec import MAX_QUBITS

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CircuitParseError", "parse", "dumps", "lower",
    "run_protocol", "audit_circuit", "view_invariance",
    "gate_census", "baseline_rounds", "interactive_rounds",
    "measured_rounds", "cost_parametric_baseline", "cost_proposed",
    "critical_ratio", "crossover_holds", "sweep", "sweep_csv",
    "precision_bits", "MAX_QUBITS",
    "UnsupportedGateError", "RegisterCapacityError",
]
