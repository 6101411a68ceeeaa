"""Tests for the traffic-accounting communicator."""

import pytest

from repro.errors import CommunicationError
from repro.parallel import SimComm


class TestPointToPoint:
    def test_size_validation(self):
        with pytest.raises(CommunicationError):
            SimComm(0)


class TestAccounting:
    def test_per_pair_bytes(self):
        comm = SimComm(3)
        comm.stats.record(0, 1, 16)
        comm.stats.record(0, 2, 32)
        comm.stats.record(0, 1, 16)
        assert comm.stats.per_pair_bytes[(0, 1)] == 32
        assert comm.stats.per_pair_bytes[(0, 2)] == 32
        assert comm.stats.messages_sent == 3
        assert comm.stats.bytes_sent == 64


class TestCollectives:
    def test_allreduce_sum(self):
        comm = SimComm(4)
        assert comm.allreduce([1.0, 2.0, 3.0, 4.0]) == 10.0

    def test_allreduce_needs_value_per_rank(self):
        comm = SimComm(3)
        with pytest.raises(CommunicationError):
            comm.allreduce([1.0])

    def test_allreduce_charges_traffic(self):
        comm = SimComm(8)
        comm.allreduce([0.0] * 8)
        assert comm.stats.bytes_sent > 0
        # Recursive doubling over 8 ranks: 3 rounds of one 8-byte ring
        # message per rank.
        assert comm.stats.messages_sent == 3 * 8
        assert comm.stats.bytes_sent == 3 * 8 * 8
        assert comm.stats.allreduce_calls == 1

    def test_allreduce_sums_in_rank_order(self):
        """The reduction is the rank-ordered ``sum`` every engine relies
        on for bitwise-equal k-eff: float addition does not commute here."""
        values = [1e16, 1.0, -1e16, 1.0]
        assert SimComm(4).allreduce(values).hex() == sum(values).hex()
        assert SimComm(4).allreduce(values) != sum(reversed(values))
