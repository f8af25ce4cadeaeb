"""Tests for the simulated MPI runtime: memory model, communicator, collectives."""

import threading
import time

import pytest

from repro.mpisim.comm import (
    CollectiveExchange,
    MessageBox,
    SimulationDeadlock,
    SplitRegistry,
    make_world,
)
from repro.mpisim.datatypes import MPI_MAX, MPI_MIN, MPI_PROD, MPI_SUM
from repro.mpisim.memory import Cell, Pointer, Scope, read_buffer, write_buffer


class TestMemoryModel:
    def test_cell_and_pointer(self):
        cell = Cell(5)
        pointer = Pointer(cell)
        assert pointer.deref() == 5
        pointer.store(9)
        assert cell.value == 9

    def test_pointer_into_list(self):
        data = [1, 2, 3, 4]
        pointer = Pointer(data, 1)
        assert pointer.deref() == 2
        assert pointer.index(2) == 4
        pointer.store_index(0, 7)
        assert data[1] == 7
        shifted = pointer.shifted(2)
        assert shifted.deref() == 4

    def test_scope_chain(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = outer.child()
        inner.declare("y", 2)
        assert inner.lookup("x").value == 1
        assert inner.lookup("y").value == 2
        assert outer.lookup("y") is None

    def test_read_buffer_variants(self):
        assert read_buffer([1, 2, 3], 2) == [1, 2]
        assert read_buffer(Pointer([1, 2, 3], 1), 2) == [2, 3]
        assert read_buffer(Pointer(Cell(5.0)), 1) == [5.0]
        assert read_buffer(Cell([7, 8]), 2) == [7, 8]

    def test_write_buffer_variants(self):
        data = [0, 0, 0]
        write_buffer(data, [1, 2])
        assert data == [1, 2, 0]
        cell = Cell(0)
        write_buffer(Pointer(cell), [9])
        assert cell.value == 9
        backing = [0, 0, 0, 0]
        write_buffer(Pointer(backing, 2), [5, 6])
        assert backing == [0, 0, 5, 6]


def _run_ranks(fn, size):
    """Run ``fn(rank, comm)`` on ``size`` communicators in threads and return results."""
    comms = make_world(size, timeout=10.0)
    results = [None] * size
    errors = []

    def worker(rank):
        try:
            results[rank] = fn(rank, comms[rank])
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert not errors, errors
    return results


class TestCommunicator:
    def test_send_recv(self):
        def body(rank, comm):
            if rank == 0:
                comm.send([42.0], dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        results = _run_ranks(body, 2)
        assert results[1] == [42.0]

    def test_bcast(self):
        def body(rank, comm):
            payload = [1, 2, 3] if rank == 0 else None
            return comm.bcast(payload, root=0)

        assert all(r == [1, 2, 3] for r in _run_ranks(body, 4))

    def test_reduce_sum_and_prod(self):
        def body(rank, comm):
            return comm.reduce([rank + 1.0], MPI_SUM, root=0)

        results = _run_ranks(body, 4)
        assert results[0] == [10.0]
        assert results[1] is None

        def body_prod(rank, comm):
            return comm.reduce([rank + 1.0], MPI_PROD, root=0)

        assert _run_ranks(body_prod, 4)[0] == [24.0]

    def test_allreduce_min_max(self):
        def body(rank, comm):
            low = comm.allreduce([float(rank)], MPI_MIN)
            high = comm.allreduce([float(rank)], MPI_MAX)
            return low + high

        for result in _run_ranks(body, 4):
            assert result == [0.0, 3.0]

    def test_scatter_gather_roundtrip(self):
        def body(rank, comm):
            data = list(range(8)) if rank == 0 else None
            chunk = comm.scatter(data, count=2, root=0)
            gathered = comm.gather(chunk, root=0)
            return gathered

        results = _run_ranks(body, 4)
        assert results[0] == list(range(8))

    def test_allgather_and_alltoall(self):
        def body(rank, comm):
            gathered = comm.allgather([rank])
            transposed = comm.alltoall([rank * 10 + i for i in range(4)], count=1)
            return gathered, transposed

        results = _run_ranks(body, 4)
        for rank, (gathered, transposed) in enumerate(results):
            assert gathered == [0, 1, 2, 3]
            assert transposed == [rank, 10 + rank, 20 + rank, 30 + rank]

    def test_scan_prefix(self):
        def body(rank, comm):
            return comm.scan([1.0], MPI_SUM)

        results = _run_ranks(body, 4)
        assert [r[0] for r in results] == [1.0, 2.0, 3.0, 4.0]

    def test_comm_split_reduces_within_color(self):
        registry = SplitRegistry(timeout=10.0)

        def body(rank, comm):
            child = comm.split(color=rank % 2, key=rank, split_registry=registry)
            return child.allreduce([1.0], MPI_SUM), child.size

        results = _run_ranks(body, 4)
        for total, size in results:
            assert total == [2.0]
            assert size == 2

    def test_recv_timeout_raises_deadlock(self):
        box = MessageBox(timeout=0.2)
        with pytest.raises(SimulationDeadlock):
            box.recv(source=0, dest=1, tag=0)

    def test_run_deadline_cuts_a_longer_wait(self):
        deadline = time.monotonic() + 0.2
        box = MessageBox(timeout=30.0, deadline=deadline)
        with pytest.raises(SimulationDeadlock):
            box.recv(source=0, dest=1, tag=0)
        exchange = CollectiveExchange(2, timeout=30.0, deadline=deadline)
        with pytest.raises(SimulationDeadlock):
            exchange.barrier(0)
        assert time.monotonic() - deadline < 0.2

    def test_message_already_queued_is_received_after_the_deadline(self):
        box = MessageBox(timeout=30.0, deadline=time.monotonic() - 1.0)
        box.send(source=0, dest=1, tag=0, payload=[4.0])
        assert box.recv(source=0, dest=1, tag=0) == [4.0]

    def test_barrier_synchronises(self):
        def body(rank, comm):
            comm.barrier()
            return True

        assert all(_run_ranks(body, 4))
