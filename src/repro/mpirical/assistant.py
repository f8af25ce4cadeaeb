"""IDE-style programming assistant wrapper around a trained MPI-RICAL model.

The paper positions MPI-RICAL as an in-editor advisor: the programmer writes
serial domain-decomposition code and the tool proposes MPI calls and their
locations on the fly.  :class:`MPIAssistant` exposes that interaction:

* :meth:`advise` — given a (possibly incomplete) source buffer, return a list
  of :class:`Advice` items, each a renderable suggestion with a confidence
  proxy and the affected line;
* :meth:`rewrite` — return the buffer with the accepted suggestions applied;
* incomplete code is handled through the tolerant parser, mirroring the
  TreeSitter-based live advising discussed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clang.parser import parse_source_with_diagnostics
from ..mpiknow.registry import MPI_COMMON_CORE
from ..xsbt.xsbt import xsbt_string
from .pipeline import MPIRical
from .suggestions import MPISuggestion, apply_suggestions


@dataclass
class Advice:
    """One piece of advice shown to the programmer."""

    suggestion: MPISuggestion
    #: Rough confidence proxy: common-core functions are suggested far more
    #: reliably than tail functions (Table II MCC vs M rows), so they are
    #: flagged "high"; everything else "medium".
    confidence: str = "medium"
    note: str = ""

    def render(self) -> str:
        text = self.suggestion.render()
        return f"[{self.confidence}] {text}" + (f" — {self.note}" if self.note else "")


@dataclass
class AdviceSession:
    """The result of one advise() call."""

    advice: list[Advice] = field(default_factory=list)
    parse_diagnostics: list[str] = field(default_factory=list)
    generated_code: str = ""

    def summary(self) -> str:
        lines = [a.render() for a in self.advice]
        if not lines:
            return "no MPI insertions suggested"
        return "\n".join(lines)


def build_advice_session(diagnostics, result) -> AdviceSession:
    """Package a :class:`PredictionResult` + parse diagnostics into a session.

    Shared by :class:`MPIAssistant` and the serving layer (which parses the
    buffer itself for cache keying and hands the pre-parsed pieces here).
    """
    session = AdviceSession(
        parse_diagnostics=[d.message for d in diagnostics],
        generated_code=result.generated_code,
    )
    for suggestion in result.suggestions:
        confidence = "high" if suggestion.function in MPI_COMMON_CORE else "medium"
        note = ""
        if suggestion.function in ("MPI_Init", "MPI_Finalize"):
            note = "required to bracket the parallel region"
        session.advice.append(Advice(suggestion=suggestion, confidence=confidence,
                                     note=note))
    return session


class MPIAssistant:
    """Interactive advisor facade over :class:`MPIRical`.

    ``identity`` is the optional ``name@revision`` string of the model this
    assistant fronts (set by :class:`repro.registry.ModelEntry`); a
    standalone assistant serves anonymously.
    """

    def __init__(self, mpirical: MPIRical, identity: str | None = None) -> None:
        self.mpirical = mpirical
        self.identity = identity

    # ------------------------------------------------------------------ api

    def advise(self, source_code: str, *, strategy=None) -> AdviceSession:
        """Suggest MPI insertions for ``source_code``.

        The buffer is parsed tolerantly; parse diagnostics are surfaced to the
        caller (an IDE would show them as soft warnings) but never block the
        suggestion flow — incomplete code is the expected case while typing.
        ``strategy`` (a :class:`repro.model.decoding.DecodingStrategy`)
        selects the decoding algorithm; None uses the pipeline default.
        """
        unit, diagnostics = parse_source_with_diagnostics(source_code)
        xsbt = xsbt_string(unit)
        result = self.mpirical.predict_code(source_code, xsbt, strategy=strategy)
        return build_advice_session(diagnostics, result)

    def advise_request(self, request) -> "object":
        """Serve one :class:`repro.api.AdviseRequest` without a serving stack.

        The direct, cache-free implementation of the v1 contract: validates
        the request, decodes under its strategy and returns an
        :class:`repro.api.AdviseResponse` (``cached=False``, no cache key).
        :class:`repro.serving.InferenceService` layers continuous batching,
        caching and multi-model routing over the very same contract.

        A standalone assistant fronts exactly one model: a request pinning
        ``model`` is accepted only when it matches this assistant's own
        :attr:`identity` (name, or the full ``name@revision``); anything else
        is the same unknown-model 422 the registry-backed service answers.
        """
        import time

        from ..api import AdviseResponse, ApiError, advice_items

        request.validate()
        echo_model = None
        if request.model is not None:
            name = self.identity.split("@", 1)[0] if self.identity else None
            if self.identity is None or request.model not in (name, self.identity):
                raise ApiError.unknown_model(
                    f"unknown model {request.model!r} (this assistant serves "
                    f"{self.identity or 'one anonymous model'})")
            echo_model = self.identity
        # Normalise exactly like the serving stack (beam_size=1 is greedy),
        # so both implementations of the contract echo the same strategy
        # identity for equivalent requests.
        strategy = request.strategy.normalised()
        start = time.perf_counter()
        session = self.advise(request.code, strategy=strategy)
        return AdviseResponse(
            generated_code=session.generated_code,
            advice=advice_items(session),
            diagnostics=tuple(session.parse_diagnostics),
            strategy=strategy,
            cached=False,
            latency_ms=(time.perf_counter() - start) * 1000.0,
            model=echo_model,
        )

    def rewrite(self, source_code: str, advice: list[Advice] | None = None) -> str:
        """Apply advice to the buffer and return the new text.

        With ``advice=None`` every suggestion from a fresh :meth:`advise` pass
        is applied (the "accept all" action).
        """
        if advice is None:
            advice = self.advise(source_code).advice
        return apply_suggestions(source_code, [a.suggestion for a in advice])

    def advise_functions(self, source_code: str) -> list[str]:
        """Just the MPI function names the assistant would insert (RQ1 view)."""
        return [a.suggestion.function for a in self.advise(source_code).advice]
