"""Multi-rank execution of a C program on the simulated MPI runtime.

Each rank parses the same source, gets its own interpreter and communicator
handle, and runs in its own thread.  The runner collects per-rank exit codes,
stdout and exceptions, and reports deadlocks (blocking operations that never
complete within the timeout) and runaway ranks (computation that never ends).

A run has one deadline, ``timeout`` seconds after it starts; there is no
grace period after it.  Every blocking MPI wait ends there, and at the
deadline the runtime sets the run's stop flag: each still-computing rank
unwinds at its next loop back-edge or user-function call, so rank threads
end with :meth:`MPIRuntime.run_source`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..clang.parser import parse_source
from .comm import DEFAULT_TIMEOUT, SplitRegistry, make_world
from .interpreter import CInterpreter, RankContext, RankStopped

#: Seconds the runtime waits, after setting the stop flag, for ranks to
#: unwind.  A rank checks the flag between statements, so this only has to
#: cover one statement and a thread switch.
STOP_JOIN_TIMEOUT = 0.1


@dataclass
class RankResult:
    """Outcome of one rank's execution."""

    rank: int
    exit_code: int = 0
    stdout: str = ""
    error: str | None = None
    #: The blocking MPI call the rank was inside when it failed or was
    #: declared stuck (e.g. ``"MPI_Recv(source=1, tag=0)"``); None when the
    #: rank finished, or failed outside any blocking MPI call.
    blocked_in: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.exit_code == 0


@dataclass
class RunResult:
    """Outcome of a whole simulated run."""

    num_ranks: int
    ranks: list[RankResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.ranks)

    @property
    def stdout(self) -> str:
        """Concatenated stdout, ordered by rank."""
        return "".join(r.stdout for r in sorted(self.ranks, key=lambda r: r.rank))

    def errors(self) -> list[str]:
        return [f"rank {r.rank}: {r.error}" for r in self.ranks if r.error]


class MPIRuntime:
    """Run C programs on a simulated MPI world."""

    def __init__(self, num_ranks: int = 4, timeout: float = DEFAULT_TIMEOUT) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be at least 1")
        self.num_ranks = num_ranks
        self.timeout = timeout

    def run_source(self, source: str, argv: list[str] | None = None) -> RunResult:
        """Parse ``source`` once per rank and execute all ranks concurrently.

        Returns within ``timeout`` plus :data:`STOP_JOIN_TIMEOUT`: ranks
        still running at the deadline are stopped cooperatively and reported
        as deadlocked (blocked in an MPI call) or runaway (computing).
        """
        stop = threading.Event()
        deadline = time.monotonic() + self.timeout
        communicators = make_world(self.num_ranks, timeout=self.timeout,
                                   deadline=deadline)
        split_registry = SplitRegistry(timeout=self.timeout, deadline=deadline)
        result = RunResult(num_ranks=self.num_ranks,
                           ranks=[RankResult(rank=r) for r in range(self.num_ranks)])
        contexts: list[RankContext | None] = [None] * self.num_ranks

        def worker(rank: int) -> None:
            rank_result = result.ranks[rank]
            try:
                unit = parse_source(source, tolerant=False)
                context = RankContext(rank=rank, comm_world=communicators[rank],
                                      split_registry=split_registry, stop=stop)
                contexts[rank] = context
                interpreter = CInterpreter(unit, context)
                rank_result.exit_code = interpreter.run_main(argv)
                rank_result.stdout = interpreter.stdout
            except RankStopped:
                rank_result.error = self._unfinished(rank, None)
                rank_result.stdout = "".join(contexts[rank].stdout)
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                rank_result.error = f"{type(exc).__name__}: {exc}"
                context = contexts[rank]
                if context is not None:
                    # A deadlock exception leaves the marker set (see
                    # MPIBindings._blocking); keep it on the result so
                    # callers can report which call the rank was stuck in.
                    rank_result.blocked_in = context.blocked_in
                    rank_result.stdout = "".join(context.stdout)

        threads = [threading.Thread(target=worker, args=(rank,), daemon=True)
                   for rank in range(self.num_ranks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        stop.set()
        stop_deadline = time.monotonic() + STOP_JOIN_TIMEOUT
        for thread in threads:
            thread.join(timeout=max(0.0, stop_deadline - time.monotonic()))
        for rank, thread in enumerate(threads):
            # A rank that did not even unwind (one statement outlasting the
            # stop window) is abandoned as a daemon thread.
            if thread.is_alive() and result.ranks[rank].error is None:
                context = contexts[rank]
                where = context.blocked_in if context is not None else None
                result.ranks[rank].blocked_in = where
                result.ranks[rank].error = self._unfinished(rank, where)
        return result

    def _unfinished(self, rank: int, where: str | None) -> str:
        """The error of a rank that did not finish within the timeout."""
        state = (f"blocked in {where}" if where is not None else
                 "no blocking MPI call in progress — runaway computation?")
        return (f"deadlock: rank {rank} did not finish within "
                f"{self.timeout:g}s ({state})")


def run_program(source: str, num_ranks: int = 4,
                timeout: float = DEFAULT_TIMEOUT) -> RunResult:
    """Convenience wrapper: run ``source`` on ``num_ranks`` simulated ranks."""
    return MPIRuntime(num_ranks=num_ranks, timeout=timeout).run_source(source)
