"""Traffic accounting for decomposed solves: the simulated communicator.

Models the MPI usage of ANT-MOC's transport solver: near-neighbour
point-to-point exchange of boundary angular flux (the Buffered Synchronous
scheme the paper cites) plus the small collectives of the eigenvalue
update. :class:`SimComm` is not a message queue: every engine moves the
halo itself through the precompiled
:class:`~repro.engine.problem.EdgePack` tables (in-process copies for
``inproc``, shared-memory mailboxes for ``mp-async``), and the pack
charges the equivalent one-message-per-route traffic here. The
eigenvalue reduction runs through :meth:`SimComm.allreduce` on every
engine, so the sum order — and the bits of k-eff — never depend on the
engine.

Byte counts are tallied per rank pair so tests can validate the Eq. (7)
communication model against the traffic a solve actually charged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import CommunicationError


@dataclass
class CommStats:
    """Traffic accounting."""

    messages_sent: int = 0
    bytes_sent: int = 0
    #: Global collective invocations (the eigenvalue/production updates);
    #: counted separately so the run report's ``allreduce_calls`` counter
    #: does not have to reverse-engineer it from ring-message totals.
    allreduce_calls: int = 0
    per_pair_bytes: dict[tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.per_pair_bytes[(src, dst)] += nbytes


class SimComm:
    """Traffic accounting over ``size`` simulated ranks.

    ``stats`` collects the halo traffic the engines charge along the route
    tables; :meth:`allreduce` is the one collective a solve performs.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise CommunicationError(f"communicator size must be >= 1 (got {size})")
        self.size = int(size)
        self.stats = CommStats()

    def allreduce(self, values: list[float]) -> float:
        """Sum one contribution per rank, in ascending rank order.

        Byte accounting models a recursive-doubling allreduce:
        ``log2(size)`` rounds of 8-byte ring exchanges per rank.
        """
        if len(values) != self.size:
            raise CommunicationError(
                f"allreduce needs one value per rank ({len(values)} != {self.size})"
            )
        self.stats.allreduce_calls += 1
        for _ in range(max(1, (self.size - 1).bit_length())):
            for rank in range(self.size):
                self.stats.record(rank, (rank + 1) % self.size, 8)
        return sum(values)
