"""The sequential-decoder oracle every served answer is checked against.

The oracle loads the same checkpoint in the benchmark process and runs the
sequential decoders (``greedy_decode`` / ``beam_search_decode`` /
``sample_decode``, reached through ``MPIRical.predict_code``) after the timed
part of a run.  A served answer is exact when its ``generated_code`` equals
the oracle's.  A verified answer that was re-ranked must equal the oracle's
N-best candidate at the winning index.

The oracle decodes in the benchmark process itself and starts no other
process: every workload checks a few dozen distinct programs at most, which
takes about as long as starting worker processes would.
"""

from __future__ import annotations

from pathlib import Path

from repro.model.decoding import strategy_from_dict
from repro.mpirical import MPIRical


def _decode(model: MPIRical, job: tuple) -> tuple[str, int]:
    code, strategy, winner, candidates = job
    decoded = strategy_from_dict(dict(strategy)).normalised()
    if winner:
        result = model.predict_code_candidates(
            code, strategy=decoded, max_candidates=candidates)[winner]
    else:
        result = model.predict_code(code, strategy=decoded)
    return result.generated_code, len(result.generated_tokens)


class Oracle:
    def __init__(self, checkpoint: Path) -> None:
        self.checkpoint = checkpoint
        self._model: MPIRical | None = None
        self._memo: dict[tuple, tuple[str, int]] = {}

    @staticmethod
    def job(code: str, strategy: dict, winner: int = 0,
            candidates: int = 1) -> tuple:
        return (code, tuple(sorted(strategy.items())), winner, candidates)

    @property
    def model(self) -> MPIRical:
        if self._model is None:
            self._model = MPIRical.load(self.checkpoint)
        return self._model

    def decoded(self, job: tuple) -> tuple[str, int]:
        """(generated program, generated token count) for ``job``."""
        if job not in self._memo:
            self._memo[job] = _decode(self.model, job)
        return self._memo[job]

    @staticmethod
    def job_for(code: str, strategy: dict, response: dict | None = None,
                candidates: int = 1) -> tuple:
        """The oracle job a served ``response`` is compared with."""
        verification = (response or {}).get("verification") or {}
        winner = int(verification.get("winner", 0)) if verification.get("reranked") else 0
        return Oracle.job(code, strategy, winner, candidates if winner else 1)

    def matches(self, code: str, strategy: dict, response: dict,
                candidates: int = 1) -> bool:
        job = self.job_for(code, strategy, response, candidates)
        return response.get("generated_code") == self.decoded(job)[0]

    def tokens(self, code: str, strategy: dict) -> int:
        """Number of tokens the sequential decoder generates."""
        return self.decoded(self.job(code, strategy))[1]
