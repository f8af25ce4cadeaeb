"""Executing candidates under the simulated MPI runtime.

The runner owns the execution half of verification: capture the serial
reference output, run a materialised candidate across a sweep of rank
counts, compare what it prints against the reference, and fold the outcome
into a structured :class:`repro.verify.verdict.Verdict` — **never** an
exception.  Numerical comparison is tolerance-based over the numbers each
program prints (in document order), falling back to exact text comparison
for number-free output.

Time is bounded by one :class:`Budget`.  Each simulation gets what remains
of it, less :data:`REPORT_RESERVE_S`, and the simulator stops every rank at
that run's deadline (see :mod:`repro.mpisim.runtime`), so a verification
ends inside its budget.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

from ..clang.parser import parses_cleanly
from ..mpisim import run_failure_message, run_program
from .verdict import RankDiagnostic, Verdict

#: Floats (with optional exponent) and bare integers, in document order.
_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

#: Default per-simulation timeout (seconds); deliberately far below the
#: simulator's 30s default — verification sweeps many runs per request.
DEFAULT_SIM_TIMEOUT = 5.0

#: Seconds of a budget no simulation may use: the time after the last run
#: for building the report (and re-anchoring a reranked winner).
REPORT_RESERVE_S = 0.05

#: A candidate run is not started with less time than this left.
MIN_RUN_S = 0.05


def numeric_values(text: str) -> list[float]:
    """Every number printed in ``text``, in order, as floats."""
    return [float(m) for m in _NUMBER_RE.findall(text)]


def outputs_match(reference: str, observed: str, tolerance: float = 1e-6) -> bool:
    """Whether ``observed`` output is numerically equivalent to ``reference``.

    Numbers compare pairwise within ``tolerance`` (absolute, plus the same
    tolerance relatively for large magnitudes); output without any numbers
    on either side compares as stripped text.
    """
    ref_values = numeric_values(reference)
    obs_values = numeric_values(observed)
    if not ref_values and not obs_values:
        return reference.strip() == observed.strip()
    if len(ref_values) != len(obs_values):
        return False
    return all(
        abs(r - o) <= tolerance + tolerance * max(abs(r), abs(o))
        for r, o in zip(ref_values, obs_values)
    )


class ReferenceError(Exception):
    """The serial reference program itself could not produce an output."""


@dataclass
class Budget:
    """A monotonic wall-clock deadline shared by a whole verification."""

    deadline: float

    @classmethod
    def from_timeout(cls, seconds: float) -> "Budget":
        return cls(deadline=time.monotonic() + seconds)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run_seconds(self, cap: float) -> float:
        """Seconds the next simulation may take: at most ``cap``, ending
        :data:`REPORT_RESERVE_S` before the deadline (0 when that has passed)."""
        return max(0.0, min(cap, self.remaining() - REPORT_RESERVE_S))

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


def capture_reference(original: str, *, timeout: float = DEFAULT_SIM_TIMEOUT) -> str:
    """Run ``original`` serially (one simulated rank) and return its stdout.

    Raises :class:`ReferenceError` when the original does not parse or does
    not run — verification is then skipped, because there is nothing sound
    to compare candidates against.
    """
    if not parses_cleanly(original):
        raise ReferenceError("original program does not parse cleanly")
    run = run_program(original, num_ranks=1, timeout=timeout)
    if not run.ok:
        raise ReferenceError(
            f"original program failed under simulation: {run_failure_message(run)}")
    return run.stdout


def _classify_failure(run) -> tuple[str, list[RankDiagnostic]]:
    """Map a failed run onto (status, per-rank diagnostics)."""
    diagnostics = [
        RankDiagnostic(rank=r.rank, exit_code=r.exit_code, error=r.error,
                       blocked_in=r.blocked_in)
        for r in run.ranks if r.error is not None or r.exit_code != 0
    ]
    deadlocked = any(r.error is not None
                     and ("deadlock" in r.error.lower()
                          or "SimulationDeadlock" in r.error)
                     for r in run.ranks)
    return ("deadlocked" if deadlocked else "runtime_error"), diagnostics


def run_candidate(source: str, reference_stdout: str, *, candidate: int = 0,
                  ranks: tuple[int, ...] = (1, 2, 4), tolerance: float = 1e-6,
                  sim_timeout: float = DEFAULT_SIM_TIMEOUT,
                  budget: Budget | None = None) -> Verdict:
    """Verify one materialised candidate program end to end.

    The rank sweep runs in the given order and stops at the first failure
    (the cheapest counts go first, so a broken candidate fails fast); a
    candidate is ``equivalent`` only when **every** rank count runs cleanly
    and matches the reference.  ``budget``, when given, bounds the whole
    sweep: runs use whatever wall-clock remains, and an exhausted budget
    yields a ``timeout`` verdict instead of starting another simulation.
    A run that reaches its deadline is stopped there, so the sweep ends
    inside the budget.
    """
    started = time.monotonic()

    def done(status: str, detail: str = "", ranks_run: tuple[int, ...] = (),
             diagnostics: list[RankDiagnostic] | None = None) -> Verdict:
        return Verdict(candidate=candidate, status=status, detail=detail,
                       ranks_run=ranks_run,
                       wall_ms=(time.monotonic() - started) * 1000.0,
                       diagnostics=diagnostics or [])

    if not parses_cleanly(source):
        return done("parse_error", "candidate does not parse cleanly")

    ranks_run: list[int] = []
    for num_ranks in ranks:
        timeout = sim_timeout
        if budget is not None:
            timeout = budget.run_seconds(sim_timeout)
            if timeout <= MIN_RUN_S:
                return done("timeout",
                            f"verification budget exhausted before the "
                            f"{num_ranks}-rank run", tuple(ranks_run))
        try:
            run = run_program(source, num_ranks=num_ranks, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - a verdict, never a crash
            return done("runtime_error",
                        f"simulator error on {num_ranks} ranks: "
                        f"{type(exc).__name__}: {exc}", tuple(ranks_run))
        ranks_run.append(num_ranks)
        if not run.ok:
            status, diagnostics = _classify_failure(run)
            return done(status,
                        f"{num_ranks} ranks: {run_failure_message(run)}",
                        tuple(ranks_run), diagnostics)
        if not outputs_match(reference_stdout, run.stdout, tolerance):
            return done("diverged",
                        f"{num_ranks} ranks: output {run.stdout.strip()!r} "
                        f"does not match the serial reference "
                        f"{reference_stdout.strip()!r}", tuple(ranks_run))
    return done("equivalent", ranks_run=tuple(ranks_run))
