"""Circuit container and the line-oriented text format.

A circuit file looks like:

    version 1
    qubits 3
    # prepare and entangle
    h 0
    cx 0 1
    rz 2 0.7853981633974483
    measure 2

One gate per line, qubit indices then an optional angle (rz only), '#'
starts a comment.  The format round-trips through ``dumps``/``parse`` except
for raw-matrix gates, which exist only in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import statevec as sv
from .statevec import Gate, GateOp

FORMAT_VERSION = 1

# gates that may appear in a circuit file, keyed by mnemonic
_TEXT_GATES = {
    "x": Gate.X, "z": Gate.Z, "h": Gate.H, "s": Gate.S, "t": Gate.T,
    "cx": Gate.CX, "cz": Gate.CZ, "ccx": Gate.CCX, "rz": Gate.RZ,
    "swap": Gate.SWAP, "measure": Gate.MEASURE,
}
_MNEMONIC = {g: m for m, g in _TEXT_GATES.items()}


class CircuitParseError(ValueError):
    """Raised with a 1-based line number when a circuit file is malformed."""


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= sv.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{sv.MAX_QUBITS}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(
                        f"{op.kind.value} touches qubit {q} but the circuit "
                        f"has {self.n_qubits}"
                    )


def _parse_gate_line(lineno: int, fields: list[str]) -> GateOp:
    name = fields[0]
    kind = _TEXT_GATES.get(name)
    if kind is None:
        raise CircuitParseError(f"line {lineno}: unknown gate '{name}'")
    arity = sv.GATE_ARITY[kind]
    want = arity + (1 if kind is Gate.RZ else 0)
    if len(fields) - 1 != want:
        raise CircuitParseError(
            f"line {lineno}: '{name}' needs {want} argument(s), "
            f"got {len(fields) - 1}"
        )
    try:
        qubits = tuple(int(f) for f in fields[1:1 + arity])
    except ValueError:
        raise CircuitParseError(
            f"line {lineno}: qubit indices must be integers"
        ) from None
    if any(q < 0 for q in qubits):
        raise CircuitParseError(f"line {lineno}: qubit indices must be >= 0")
    angle = None
    if kind is Gate.RZ:
        try:
            angle = float(fields[-1])
        except ValueError:
            raise CircuitParseError(
                f"line {lineno}: bad angle '{fields[-1]}'"
            ) from None
        if not angle == angle or angle in (float("inf"), float("-inf")):
            raise CircuitParseError(f"line {lineno}: angle must be finite")
    try:
        return GateOp(kind, qubits, angle=angle)
    except ValueError as exc:
        raise CircuitParseError(f"line {lineno}: {exc}") from None


def parse(text: str) -> Circuit:
    """Parse circuit-file text; raises CircuitParseError with line numbers."""
    version = None
    n_qubits = None
    ops: list[GateOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if version is None:
            if fields[0] != "version" or len(fields) != 2:
                raise CircuitParseError(
                    f"line {lineno}: expected 'version <n>' first"
                )
            try:
                version = int(fields[1])
            except ValueError:
                raise CircuitParseError(
                    f"line {lineno}: bad version '{fields[1]}'"
                ) from None
            if version != FORMAT_VERSION:
                raise CircuitParseError(
                    f"line {lineno}: unsupported format version {version}"
                )
            continue
        if n_qubits is None:
            if fields[0] != "qubits" or len(fields) != 2:
                raise CircuitParseError(
                    f"line {lineno}: expected 'qubits <n>' before gates"
                )
            try:
                n_qubits = int(fields[1])
            except ValueError:
                raise CircuitParseError(
                    f"line {lineno}: bad qubit count '{fields[1]}'"
                ) from None
            if not 1 <= n_qubits <= sv.MAX_QUBITS:
                raise CircuitParseError(
                    f"line {lineno}: qubit count must be in 1..{sv.MAX_QUBITS}"
                )
            continue
        op = _parse_gate_line(lineno, fields)
        if max(op.qubits) >= n_qubits:
            raise CircuitParseError(
                f"line {lineno}: qubit {max(op.qubits)} out of range "
                f"for {n_qubits} qubits"
            )
        ops.append(op)
    if version is None:
        raise CircuitParseError("empty circuit file (missing version line)")
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits <n>' line")
    return Circuit(n_qubits, tuple(ops))


def dumps(circuit: Circuit) -> str:
    lines = [f"version {FORMAT_VERSION}", f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        if op.kind is Gate.U:
            raise ValueError("raw-matrix gates cannot be serialized")
        parts = [_MNEMONIC[op.kind], *map(str, op.qubits)]
        if op.kind is Gate.RZ:
            parts.append(repr(float(op.angle)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
