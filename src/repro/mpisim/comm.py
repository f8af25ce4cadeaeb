"""Simulated MPI communicator: point-to-point queues and collectives.

Each simulated rank runs in its own thread (see :mod:`repro.mpisim.runtime`);
this module provides the shared coordination objects:

* :class:`MessageBox` — per-(source, dest, tag) FIFO queues for Send/Recv;
* :class:`CollectiveExchange` — barrier + slot array used by every collective
  (Bcast, Reduce, Allreduce, Scatter, Gather, Allgather, Alltoall, Scan,
  Barrier);
* :class:`SimCommunicator` — the object the interpreter's MPI bindings talk
  to; supports communicator splitting (``MPI_Comm_split``) by building child
  communicators over the participating ranks.

The simulator models *values*, not bytes: a message is a list of Python
numbers.  That is all the validity check of the numerical benchmark needs.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from .datatypes import MPIOp

#: Seconds a blocking receive/collective waits before declaring deadlock.
DEFAULT_TIMEOUT = 30.0


class SimulationDeadlock(RuntimeError):
    """Raised when a blocking MPI operation times out (deadlock in the program)."""


def _wait_seconds(timeout: float, deadline: float | None) -> float:
    """How long one blocking call may wait: ``timeout``, cut at the run's
    ``deadline`` (a :func:`time.monotonic` instant) when there is one."""
    if deadline is None:
        return timeout
    return max(0.0, min(timeout, deadline - time.monotonic()))


@dataclass
class MessageBox:
    """Point-to-point mailboxes keyed by (source, dest, tag)."""

    timeout: float = DEFAULT_TIMEOUT
    deadline: float | None = None
    _queues: dict[tuple[int, int, int], "queue.Queue"] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _queue_for(self, source: int, dest: int, tag: int) -> "queue.Queue":
        key = (source, dest, tag)
        with self._lock:
            if key not in self._queues:
                self._queues[key] = queue.Queue()
            return self._queues[key]

    def send(self, source: int, dest: int, tag: int, payload: list) -> None:
        self._queue_for(source, dest, tag).put(list(payload))

    def recv(self, source: int, dest: int, tag: int) -> list:
        try:
            return self._queue_for(source, dest, tag).get(
                timeout=_wait_seconds(self.timeout, self.deadline))
        except queue.Empty as exc:
            raise SimulationDeadlock(
                f"rank {dest} timed out waiting for a message from rank {source} "
                f"(tag {tag})"
            ) from exc


class CollectiveExchange:
    """One reusable rendezvous object shared by all ranks of a communicator.

    Every collective follows the same pattern: each rank deposits its
    contribution into its slot, everyone meets at a barrier, every rank then
    reads what it needs, and a second barrier prevents the next collective
    from overwriting slots that are still being read.
    """

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT,
                 deadline: float | None = None) -> None:
        self.size = size
        self.timeout = timeout
        self.deadline = deadline
        self._slots: list = [None] * size
        self._barrier = threading.Barrier(size)

    def _wait(self, rank: int | None = None, label: str | None = None) -> None:
        try:
            self._barrier.wait(timeout=_wait_seconds(self.timeout, self.deadline))
        except threading.BrokenBarrierError as exc:
            who = f"rank {rank}" if rank is not None else "a rank"
            call = label or "a collective operation"
            raise SimulationDeadlock(
                f"{who} timed out in {call} after {self.timeout:g}s — "
                f"not all {self.size} ranks reached the call "
                f"(ranks diverged or deadlocked)"
            ) from exc

    def exchange(self, rank: int, contribution, label: str | None = None) -> list:
        """Deposit ``contribution`` and return every rank's contribution."""
        self._slots[rank] = contribution
        self._wait(rank, label)
        snapshot = list(self._slots)
        self._wait(rank, label)
        return snapshot

    def barrier(self, rank: int, label: str | None = None) -> None:
        self._wait(rank, label or "MPI_Barrier")


@dataclass
class CommGroup:
    """Shared state of one communicator (world or split child)."""

    size: int
    message_box: MessageBox
    collective: CollectiveExchange
    #: Mapping of communicator rank -> world rank (identity for the world).
    world_ranks: list[int] = field(default_factory=list)


class SimCommunicator:
    """The per-rank handle on a communicator's shared state."""

    def __init__(self, group: CommGroup, rank: int) -> None:
        self.group = group
        self.rank = rank

    # ----------------------------------------------------------- environment

    @property
    def size(self) -> int:
        return self.group.size

    # --------------------------------------------------------- point to point

    def send(self, payload: list, dest: int, tag: int) -> None:
        self.group.message_box.send(self.rank, dest, tag, payload)

    def recv(self, source: int, tag: int) -> list:
        return self.group.message_box.recv(source, self.rank, tag)

    def sendrecv(self, payload: list, dest: int, send_tag: int,
                 source: int, recv_tag: int) -> list:
        """Combined send/receive; either side may be MPI_PROC_NULL (handled by
        the caller passing dest/source < 0)."""
        if dest >= 0:
            self.group.message_box.send(self.rank, dest, send_tag, payload)
        if source >= 0:
            return self.group.message_box.recv(source, self.rank, recv_tag)
        return []

    # ------------------------------------------------------------ collectives

    def barrier(self) -> None:
        self.group.collective.barrier(self.rank)

    def bcast(self, payload: list | None, root: int) -> list:
        contributions = self.group.collective.exchange(self.rank, payload,
                                                       "MPI_Bcast")
        result = contributions[root]
        return list(result) if result is not None else []

    def reduce(self, payload: list, op: MPIOp, root: int) -> list | None:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Reduce")
        if self.rank != root:
            return None
        return _elementwise_reduce(contributions, op)

    def allreduce(self, payload: list, op: MPIOp) -> list:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Allreduce")
        return _elementwise_reduce(contributions, op)

    def scan(self, payload: list, op: MPIOp) -> list:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Scan")
        return _elementwise_reduce(contributions[: self.rank + 1], op)

    def scatter(self, payload: list | None, count: int, root: int) -> list:
        contributions = self.group.collective.exchange(self.rank, payload,
                                                       "MPI_Scatter")
        source = contributions[root]
        if source is None:
            raise ValueError(f"MPI_Scatter: root {root} provided no send buffer")
        start = self.rank * count
        return list(source[start:start + count])

    def gather(self, payload: list, root: int) -> list | None:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Gather")
        if self.rank != root:
            return None
        flattened: list = []
        for chunk in contributions:
            flattened.extend(chunk)
        return flattened

    def allgather(self, payload: list) -> list:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Allgather")
        flattened: list = []
        for chunk in contributions:
            flattened.extend(chunk)
        return flattened

    def alltoall(self, payload: list, count: int) -> list:
        contributions = self.group.collective.exchange(self.rank, list(payload),
                                                       "MPI_Alltoall")
        received: list = []
        for source_chunk in contributions:
            start = self.rank * count
            received.extend(source_chunk[start:start + count])
        return received

    # ------------------------------------------------------------- splitting

    def split(self, color: int, key: int,
              split_registry: "SplitRegistry") -> "SimCommunicator":
        """MPI_Comm_split: ranks with the same ``color`` form a child
        communicator ordered by ``key`` (ties broken by world rank)."""
        contributions = self.group.collective.exchange(
            self.rank, (color, key, self.rank), "MPI_Comm_split")
        members = sorted(
            (k, r) for (c, k, r) in contributions if c == color
        )
        member_ranks = [r for _, r in members]
        new_rank = member_ranks.index(self.rank)
        child_group = split_registry.group_for(tuple(member_ranks), self.group.size)
        return SimCommunicator(child_group, new_rank)


class SplitRegistry:
    """Shared registry so every rank of a split obtains the *same* child group."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT,
                 deadline: float | None = None) -> None:
        self._lock = threading.Lock()
        self._groups: dict[tuple[int, ...], CommGroup] = {}
        self.timeout = timeout
        self.deadline = deadline

    def group_for(self, member_world_ranks: tuple[int, ...], _parent_size: int) -> CommGroup:
        with self._lock:
            if member_world_ranks not in self._groups:
                size = len(member_world_ranks)
                self._groups[member_world_ranks] = CommGroup(
                    size=size,
                    message_box=MessageBox(timeout=self.timeout,
                                           deadline=self.deadline),
                    collective=CollectiveExchange(size, timeout=self.timeout,
                                                  deadline=self.deadline),
                    world_ranks=list(member_world_ranks),
                )
            return self._groups[member_world_ranks]


def _elementwise_reduce(contributions: list[list], op: MPIOp) -> list:
    """Element-wise reduction across per-rank payload lists."""
    result = list(contributions[0])
    for chunk in contributions[1:]:
        for i, value in enumerate(chunk):
            result[i] = op.combine(result[i], value)
    return result


def make_world(size: int, timeout: float = DEFAULT_TIMEOUT,
               deadline: float | None = None) -> list[SimCommunicator]:
    """Create MPI_COMM_WORLD handles for ``size`` ranks.

    ``deadline`` (a :func:`time.monotonic` instant) ends every blocking
    wait of the world, however late the call started."""
    group = CommGroup(
        size=size,
        message_box=MessageBox(timeout=timeout, deadline=deadline),
        collective=CollectiveExchange(size, timeout=timeout, deadline=deadline),
        world_ranks=list(range(size)),
    )
    return [SimCommunicator(group, rank) for rank in range(size)]
