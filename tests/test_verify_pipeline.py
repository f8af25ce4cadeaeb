"""repro.verify: materialisation, the rank-sweep runner and reranking.

Model-free: every program here is hand-written or generated by the fuzz
templates, so the pipeline's verdicts are deterministic and the differential
property (the reranked winner is equivalent under simulation whenever *any*
candidate is) can be proved exactly.
"""

from __future__ import annotations

import pytest

from repro.mpirical.pipeline import PredictionResult
from repro.verify import (
    Budget,
    ReferenceError,
    VerifyConfig,
    capture_reference,
    materialize_candidate,
    numeric_values,
    outputs_match,
    run_candidate,
    verify_candidates,
)
from repro.verify.fuzz import fuzz_corpus

SERIAL_SUM = """\
#include <stdio.h>
int main(int argc, char **argv) {
    int i;
    int total = 0;
    for (i = 0; i < 10; i++) {
        total = total + i;
    }
    printf("total = %d\\n", total);
    return 0;
}
"""

PARALLEL_SUM = """\
#include <stdio.h>
#include <mpi.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int local = 0;
    int total = 0;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = rank; i < 10; i += size) {
        local = local + i;
    }
    MPI_Reduce(&local, &total, 1, MPI_INT, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("total = %d\\n", total);
    }
    MPI_Finalize();
    return 0;
}
"""

#: PARALLEL_SUM with the reduction dropped: every rank prints its own
#: partial on rank 0's guard — wrong on 2+ ranks, right on 1.
DROPPED_REDUCE = PARALLEL_SUM.replace(
    "    MPI_Reduce(&local, &total, 1, MPI_INT, MPI_SUM, 0, MPI_COMM_WORLD);\n",
    "").replace('printf("total = %d\\n", total);',
                'printf("total = %d\\n", local);')

BROKEN = "int main( {"


# ------------------------------------------------------------ output matching


def test_numeric_values_extracts_in_document_order():
    assert numeric_values("a 1 b -2.5 c 3e2") == [1.0, -2.5, 300.0]


def test_outputs_match_within_tolerance():
    assert outputs_match("pi = 3.141592", "pi = 3.141593", 1e-5)
    assert not outputs_match("pi = 3.141592", "pi = 3.2", 1e-5)


def test_outputs_match_text_fallback_when_no_numbers():
    assert outputs_match("done\n", "  done  ")
    assert not outputs_match("done", "failed")


def test_outputs_match_requires_same_number_count():
    assert not outputs_match("1 2 3", "1 2")


# ------------------------------------------------------------- materialise


def test_materialize_plain_source_standardises():
    assert "total" in materialize_candidate(SERIAL_SUM, PARALLEL_SUM)


def test_materialize_unparseable_string_passes_through():
    assert materialize_candidate(SERIAL_SUM, BROKEN) == BROKEN


def test_materialize_falls_back_to_suggestions_on_bad_generation():
    from repro.mpirical.suggestions import extract_suggestions

    suggestions = extract_suggestions(SERIAL_SUM, PARALLEL_SUM)
    result = PredictionResult(generated_code=BROKEN, generated_tokens=[],
                              suggestions=suggestions)
    materialised = materialize_candidate(SERIAL_SUM, result)
    assert materialised != BROKEN
    assert "MPI_Init" in materialised


# ------------------------------------------------------------------- runner


def test_capture_reference_returns_serial_stdout():
    assert "total = 45" in capture_reference(SERIAL_SUM)


def test_capture_reference_rejects_unparseable_original():
    with pytest.raises(ReferenceError):
        capture_reference(BROKEN)


def test_run_candidate_equivalent_across_rank_sweep():
    reference = capture_reference(SERIAL_SUM)
    verdict = run_candidate(PARALLEL_SUM, reference, ranks=(1, 2, 4))
    assert verdict.status == "equivalent"
    assert verdict.ranks_run == (1, 2, 4)
    assert verdict.wall_ms > 0


def test_run_candidate_diverged_names_the_failing_rank_count():
    reference = capture_reference(SERIAL_SUM)
    verdict = run_candidate(DROPPED_REDUCE, reference, ranks=(1, 2))
    assert verdict.status == "diverged"
    assert verdict.ranks_run == (1, 2)  # 1 rank passed, 2 diverged
    assert "2 ranks" in verdict.detail


def test_run_candidate_budget_exhaustion_is_a_timeout_verdict():
    reference = capture_reference(SERIAL_SUM)
    verdict = run_candidate(PARALLEL_SUM, reference, ranks=(1, 2),
                            budget=Budget(deadline=0.0))
    assert verdict.status == "timeout"
    assert "budget exhausted" in verdict.detail


# -------------------------------------------------------------------- rerank


def test_verify_candidates_reranks_to_first_equivalent():
    report = verify_candidates(SERIAL_SUM,
                               [DROPPED_REDUCE, BROKEN, PARALLEL_SUM])
    assert report.verified
    assert report.winner_index == 2
    assert report.reranked
    assert [v.status for v in report.verdicts] == [
        "diverged", "parse_error", "equivalent"]


def test_verify_candidates_keeps_candidate_zero_when_it_wins():
    report = verify_candidates(SERIAL_SUM, [PARALLEL_SUM, DROPPED_REDUCE])
    assert report.verified
    assert report.winner_index == 0
    assert not report.reranked


def test_verify_candidates_all_failed_keeps_model_choice_unverified():
    report = verify_candidates(SERIAL_SUM, [DROPPED_REDUCE, BROKEN])
    assert report.status == "failed"
    assert not report.verified
    assert report.winner_index == 0
    assert not report.reranked
    assert report.reason  # first candidate's failure detail


def test_verify_candidates_skips_on_unparseable_original():
    report = verify_candidates(BROKEN, [PARALLEL_SUM])
    assert report.status == "skipped"
    assert "does not parse" in report.reason


def test_verify_candidates_skips_on_empty_candidate_set():
    assert verify_candidates(SERIAL_SUM, []).status == "skipped"


def test_verify_candidates_skips_when_budget_never_allows_a_run():
    config = VerifyConfig(timeout=0.001, sim_timeout=0.001)
    report = verify_candidates(SERIAL_SUM, [PARALLEL_SUM], config=config)
    assert report.status == "skipped"


def test_expired_budget_skips_before_the_serial_reference_runs(monkeypatch):
    import repro.verify.runner as runner

    runs = []
    monkeypatch.setattr(runner, "run_program",
                        lambda *args, **kwargs: runs.append(args))
    report = verify_candidates(SERIAL_SUM, [PARALLEL_SUM],
                               budget=Budget(deadline=0.0))
    assert report.status == "skipped"
    assert report.reason == ("verification budget exhausted before the "
                             "serial reference ran")
    assert runs == []


def test_verify_config_rejects_denial_of_service_knobs():
    with pytest.raises(ValueError):
        VerifyConfig(ranks=(1, 2, 4, 8, 16)).validate()
    with pytest.raises(ValueError):
        VerifyConfig(ranks=(64,)).validate()
    with pytest.raises(ValueError):
        VerifyConfig(timeout=0).validate()


def test_report_payload_tristate():
    skipped = verify_candidates(SERIAL_SUM, []).to_payload()
    assert skipped["verified"] == "skipped"
    verified = verify_candidates(SERIAL_SUM, [PARALLEL_SUM]).to_payload()
    assert verified["verified"] is True
    assert verified["winner"] == 0
    failed = verify_candidates(SERIAL_SUM, [BROKEN]).to_payload()
    assert failed["verified"] is False
    assert failed["verdicts"][0]["status"] == "parse_error"


# ------------------------------------------------------- differential proof


def _correct_and_mutant(index: int):
    """A (serial, correct-parallel, mutant-parallel) triple from the fuzz
    templates — mutant bounds so the mutation is guaranteed visible."""
    from repro.verify.fuzz import _parallel_source, _serial_source

    body = ("weighted", "nested", "alias", "mixed")[index % 4]
    n = (8, 12, 16, 24)[index % 4]
    serial = _serial_source(body, n)
    good = _parallel_source(body, n, "correct")
    mutant = _parallel_source(body, n,
                              ("dropped_reduce", "wrong_op")[index % 2])
    return serial, good, mutant


@pytest.mark.parametrize("index", range(12))
def test_differential_rerank_recovers_the_equivalent_candidate(index):
    """ISSUE acceptance: across >= 10 programs, whenever *any* candidate in
    the set is equivalent under simulation, the reranked winner is — and
    when none is, the report says so instead of promoting a mutant."""
    serial, good, mutant = _correct_and_mutant(index)

    # The equivalent candidate hides behind a mutant: rerank must find it.
    report = verify_candidates(serial, [mutant, good])
    assert report.verified
    assert report.winner_index == 1
    assert report.reranked
    assert report.verdicts[1].equivalent

    # No equivalent candidate at all: never claim verification.
    report = verify_candidates(serial, [mutant])
    assert not report.verified
    assert report.winner_index == 0


def test_differential_winner_matches_exhaustive_search():
    """The winner is exactly the first candidate an exhaustive per-candidate
    sweep finds equivalent — rerank adds no heuristics on top."""
    for case in fuzz_corpus(77, 8):
        report = verify_candidates(case.serial_source, [case.parallel_source])
        reference_ok = report.status != "skipped"
        if not reference_ok:
            continue
        exhaustive = [v.equivalent for v in report.verdicts]
        assert report.verified == any(exhaustive)
        if report.verified:
            assert report.winner_index == exhaustive.index(True)
