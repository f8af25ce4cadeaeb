"""Simulate-and-rerank: pick the best *verified* candidate.

This is the top of the verification pipeline.  Given the original program
and an ordered candidate list (best-first in the model's opinion), it
captures the serial reference output, takes each candidate through
materialisation and the rank-sweep runner, and selects the first candidate
that is equivalent under simulation — so a runner-up hypothesis that
actually works beats a top hypothesis that deadlocks.

Everything is bounded: one wall-clock budget covers the reference capture
and every candidate run (and, when the caller starts it earlier, whatever
the caller did first, such as the service's N-best decode).  Each
simulation is stopped at its share of the budget, a small reserve is kept
for the report, and an exhausted budget degrades to ``timeout`` verdicts
(or a wholly ``skipped`` report), never an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .materialize import materialize_candidate
from .runner import (
    Budget,
    DEFAULT_SIM_TIMEOUT,
    MIN_RUN_S,
    ReferenceError,
    capture_reference,
    run_candidate,
)
from .verdict import VerificationReport

#: Hard caps shared by every entry point (HTTP, jobs, fuzz fleet): the rank
#: sweep and candidate count multiply simulation cost, so unbounded client
#: values would be a denial-of-service knob.
MAX_VERIFY_RANKS = 8
MAX_RANK_SWEEP = 4
MAX_CANDIDATES = 8


@dataclass(frozen=True)
class VerifyConfig:
    """Bounds for one verification: rank sweep, tolerance and budget."""

    ranks: tuple[int, ...] = (1, 2, 4)
    tolerance: float = 1e-6
    #: Total wall-clock budget (seconds) for reference + every candidate.
    timeout: float = 10.0
    #: Per-simulation cap (seconds), inside the overall budget.
    sim_timeout: float = DEFAULT_SIM_TIMEOUT

    def validate(self) -> None:
        if not self.ranks or len(self.ranks) > MAX_RANK_SWEEP:
            raise ValueError(
                f"rank sweep must have 1..{MAX_RANK_SWEEP} entries")
        for count in self.ranks:
            if not 1 <= count <= MAX_VERIFY_RANKS:
                raise ValueError(
                    f"rank counts must be in [1, {MAX_VERIFY_RANKS}]")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.timeout <= 0 or self.sim_timeout <= 0:
            raise ValueError("timeouts must be > 0")


def verify_candidates(original: str, candidates: list, *,
                      config: VerifyConfig | None = None,
                      budget: Budget | None = None) -> VerificationReport:
    """Verify ``candidates`` (best-first) against ``original`` and rerank.

    Returns a :class:`VerificationReport` whose ``winner_index`` is the
    first equivalent candidate in model order — candidate 0 when all of
    them fail (the model's choice stands, flagged unverified).  The report
    is ``skipped`` when the budget leaves no run for the serial reference,
    when the reference cannot be captured, or when the budget expires
    before any candidate produced a verdict.  ``budget``
    defaults to ``config.timeout`` from now; a caller passes its own to
    count time it spent before the call.
    """
    config = config or VerifyConfig()
    config.validate()
    started = time.monotonic()
    budget = budget or Budget.from_timeout(config.timeout)

    def skipped(reason: str) -> VerificationReport:
        report = VerificationReport.skipped(reason)
        report.wall_ms = (time.monotonic() - started) * 1000.0
        return report

    if not candidates:
        return VerificationReport.skipped("no candidates to verify")
    # The floor run_candidate applies: a shorter run would only race the
    # deadline, and its verdict would depend on thread scheduling.
    timeout = budget.run_seconds(config.sim_timeout)
    if timeout <= MIN_RUN_S:
        return skipped(
            "verification budget exhausted before the serial reference ran")
    try:
        reference = capture_reference(original, timeout=timeout)
    except ReferenceError as exc:
        return skipped(str(exc))

    verdicts = []
    for index, candidate in enumerate(candidates):
        source = materialize_candidate(original, candidate)
        verdicts.append(run_candidate(
            source, reference, candidate=index, ranks=config.ranks,
            tolerance=config.tolerance, sim_timeout=config.sim_timeout,
            budget=budget))

    if all(v.status == "timeout" for v in verdicts):
        report = skipped("verification budget exhausted before any candidate ran")
        report.verdicts = verdicts
        return report

    winner = next((v.candidate for v in verdicts if v.equivalent), 0)
    verified = verdicts[winner].equivalent
    report = VerificationReport(
        status="verified" if verified else "failed",
        reason="" if verified else verdicts[0].detail,
        winner_index=winner,
        reranked=winner != 0,
        verdicts=verdicts,
        wall_ms=(time.monotonic() - started) * 1000.0,
    )
    return report
