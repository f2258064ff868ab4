"""The per-op register engine: every rz digit round runs on the whole register.

``protocol`` splits the working wire and transit off the register for
digit blocks m >= 2 and runs all of those blocks of a gate as one step on
their 4x4 reduced density (``Session.ladder``).  This engine never splits
them off: each pad, unpad, swap and server rotation of those blocks is a
kernel on the full register, and each round is one ``round_trip`` that
traces the register.  It is the reference that the two-wire ladder is
pinned against.
"""

from blindqc import paulis, protocol
from blindqc import statevec as sv
from blindqc.session import KeySource, Session


class RegisterSession(Session):
    """A session that keeps every op on the register."""

    def split_pair(self, lo: int, hi: int) -> None:
        self.ladder_wires = (lo, hi)

    def join_pair(self) -> None:
        """Nothing to join: the register took every op of the ladder."""

    def ladder(self, transit, blocks, server) -> None:
        """The digit blocks op by op: pad, round trip, unpad, swap."""
        q = sum(self.ladder_wires) - transit
        for plan, labels in blocks:
            if plan.initial_swap:
                self.client_apply([sv.swap(transit, q)])
            for r in plan.rounds:
                self.client_apply(paulis.pad_ops((r.pair,), (transit,)))
                tag = server.round_tags[r.index - 1]
                self.round_trip((transit,), tag, server.ops_for(tag),
                                pad_labels=((transit, labels[r.index - 1]),))
                self.client_apply(paulis.unpad_ops(
                    ((r.pair[0], r.unpad_z),), (transit,)))
                if r.swap_after:
                    self.client_apply([sv.swap(transit, q)])


def run_pinned(circuit, epsilon, seed, overrides=None, *, extractor="floor",
               session_type=Session) -> protocol.ProtocolResult:
    """``protocol.run_protocol`` with the pad labels in ``overrides`` pinned:
    a whole-circuit replay from |0...0>.  Under ``RegisterSession`` every
    ladder round runs on the register."""
    session = session_type(circuit.n_qubits + protocol.N_SLOTS, seed,
                           epsilon=epsilon)
    session.keys = KeySource(seed, overrides)
    return protocol._Run(circuit, epsilon, session, extractor).run()
