"""Packets in flight.

Wormhole routing divides messages into packets and packets into flits; the
header flits lead the packet through the network and the remaining flits
follow in a pipeline (Section 1).  The paper's workload sends one-packet
messages, so the simulator's unit of bookkeeping is the packet.

Rather than materializing a Python object per flit, a packet records the
chain of channels it currently occupies (``path``, as dense channel ids —
see :mod:`repro.sim.ids`) and how many of its flits sit in each channel's
buffer.  Wormhole flow control moves flits only forward along this chain,
one flit per channel per cycle, so counts are a lossless representation;
it is also what makes the simulator fast enough for 256-node networks in
pure Python.  With single-flit buffers on a single lane every count is 0
or 1 and the counts are the bits of one int (``occ_bits``); any other
configuration keeps them in the ``occupancy`` list.
"""

from __future__ import annotations

from typing import List, Optional

from repro.topology.channels import NodeId

__all__ = ["Packet"]


class Packet:
    """One packet travelling from ``src`` to ``dest``.

    Attributes:
        pid: unique id, in injection order.
        src, dest: endpoint nodes.
        dest_id: the destination's dense node index (engine-assigned),
            so the routing hot path never touches node tuples.
        size: length in flits.
        create_time: simulation time (cycles, fractional) the message was
            generated at its source processor.
        inject_cycle: cycle the header flit entered the injection buffer.
        path: ids of the channels currently held, source end first.
        occupancy: flits of this packet buffered in each held channel
            (deep buffers or virtual channels; empty otherwise).
        occ_bits: the same as a bitmask — bit *i* is the buffer fill of
            ``path[i]`` — used by the capacity-1 single-lane mover.
        remaining_to_inject: flits still waiting at the source.
        flits_consumed: flits delivered to the destination processor.
            While the worm cruises (``cruise_exit`` set) both are *as of
            cruise entry* — the engine settles them in one step when the
            worm leaves the cruise — and the worm has streamed one flit
            per cycle since; ``flits_consumed + remaining_to_inject +
            flits_in_network == size`` holds throughout either way.
        header_present: the header flit sits in ``path[-1]``'s buffer and
            the packet needs (or is waiting for) its next channel.
        waiting_since: cycle the header arrived at the current router —
            the key for local first-come-first-served arbitration.
        route_complete: the ejection channel has been allocated; no
            further routing decisions remain.
        stalled: the engine skips the packet's per-cycle movement pass:
            either no internal movement is possible until the next
            grant, or the worm is cruising.
        cruise_exit: the first cycle the worm is moved individually
            again while it cruises (see ``WormholeSimulator._move1``), 0
            otherwise.
        parked: the header is blocked and the packet has left the waiter
            list; a candidate channel's release will wake it.
        park_token: generation counter distinguishing the current parking
            from stale wake-list entries left by earlier ones.
        pending_candidates: cached routing candidates for the current
            router, computed once per router visit.
        hops: network channels traversed by the header so far.
    """

    __slots__ = (
        "pid",
        "src",
        "dest",
        "dest_id",
        "size",
        "create_time",
        "inject_cycle",
        "path",
        "occupancy",
        "occ_bits",
        "remaining_to_inject",
        "flits_consumed",
        "header_present",
        "waiting_since",
        "route_complete",
        "stalled",
        "cruise_exit",
        "parked",
        "park_token",
        "pending_candidates",
        "hops",
    )

    def __init__(
        self,
        pid: int,
        src: NodeId,
        dest: NodeId,
        size: int,
        create_time: float,
    ):
        self.pid = pid
        self.src = src
        self.dest = dest
        self.dest_id = -1
        self.size = size
        self.create_time = create_time
        self.inject_cycle: Optional[int] = None
        self.path: List[int] = []
        self.occupancy: List[int] = []
        self.occ_bits = 0
        self.remaining_to_inject = size
        self.flits_consumed = 0
        self.header_present = False
        self.waiting_since = 0
        self.route_complete = False
        self.stalled = False
        self.cruise_exit = 0
        self.parked = False
        self.park_token = 0
        self.pending_candidates = None
        self.hops = 0

    @property
    def done(self) -> bool:
        """Whether every flit has been consumed at the destination."""
        return self.flits_consumed >= self.size

    @property
    def flits_in_network(self) -> int:
        """Flits currently buffered in channels the packet holds."""
        if self.occupancy:
            return sum(self.occupancy)
        return self.occ_bits.bit_count()

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.pid}, {self.src}->{self.dest}, size={self.size}, "
            f"consumed={self.flits_consumed})"
        )
