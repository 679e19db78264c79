"""NIC model: per-operation processing and outstanding-request limits.

The NIC sits between a host and its fabric.  For this reproduction only two
properties matter beyond the link itself (which lives in ``repro.net``):

* per-WQE processing time (it bounds small-message rate), and
* the cap on outstanding one-sided reads per QP (ConnectX-class hardware
  allows 16; the multi-issue traversal must respect it).
"""

from __future__ import annotations

from typing import Generator

from ..net.fabric import FabricProfile
from ..sim.kernel import Simulator
from ..sim.resources import Resource

#: Outstanding RDMA Reads per QP (IB spec default for ConnectX NICs).
DEFAULT_MAX_OUTSTANDING_READS = 16


class Nic:
    """One host's network card."""

    def __init__(
        self,
        sim: Simulator,
        profile: FabricProfile,
        name: str = "nic",
        max_outstanding_reads: int = DEFAULT_MAX_OUTSTANDING_READS,
    ):
        if max_outstanding_reads < 1:
            raise ValueError(
                f"max_outstanding_reads must be >= 1, got {max_outstanding_reads}"
            )
        self.sim = sim
        self.profile = profile
        self.name = name
        self.max_outstanding_reads = max_outstanding_reads
        self._read_slots = Resource(sim, capacity=max_outstanding_reads)
        self.ops_processed = 0
        #: Optional fault injector (see repro.faults); when set, one-sided
        #: reads served by this NIC consult it for a per-read stall.
        self.fault_injector = None

    def read_stall_s(self, host_name: str) -> float:
        """Extra responder-side delay for one RDMA Read (0.0 normally)."""
        injector = self.fault_injector
        if injector is None:
            return 0.0
        return injector.nic_read_stall(host_name)

    def process_wqe(self) -> Generator:
        """Occupy the NIC pipeline for one work-queue element."""
        self.ops_processed += 1
        yield self.sim.timeout(self.profile.rdma_nic_processing_s)

    def acquire_read_slot(self):
        """Claim an outstanding-read slot (request event; release() it)."""
        return self._read_slots.request()
