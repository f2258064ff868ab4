"""The per-op register engine: every rz digit round runs on the whole register.

``protocol`` splits the working wire and transit off the register for
digit blocks m >= 2 and runs those blocks on their 4x4 reduced density.
This engine never splits them off: each pad, unpad, swap and server
rotation of those blocks is a kernel on the full register, and each
record traces the register.  It is the reference that the two-wire
ladder is pinned against.
"""

from blindqc import protocol
from blindqc.session import Session


class RegisterSession(Session):
    """A session that keeps every op on the register."""

    def split_pair(self, lo: int, hi: int) -> None:
        pass


def run_pinned(circuit, epsilon, seed, overrides=None, *, extractor="floor",
               session_type=Session) -> protocol.ProtocolResult:
    """``protocol.run_protocol`` with the pad labels in ``overrides`` pinned:
    a whole-circuit replay from |0...0>.  Under ``RegisterSession`` every
    ladder round runs on the register."""
    session = session_type(circuit.n_qubits + protocol.N_SLOTS, seed,
                           epsilon=epsilon, overrides=overrides)
    return protocol._Run(circuit, epsilon, session, extractor).run()
