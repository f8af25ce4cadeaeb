"""Tests for the C interpreter and the multi-rank runtime."""

import threading
import time

import pytest

from repro.mpisim.runtime import run_program
from repro.mpisim.validate import all_floats, expect_close, first_float, validate_program


def _single_rank_stdout(source: str) -> str:
    result = run_program(source, num_ranks=1)
    assert result.ok, result.errors()
    return result.stdout


class TestSerialInterpretation:
    def test_arithmetic_and_printf(self):
        out = _single_rank_stdout(
            'int main() { int a = 7; double b = 2.5; printf("%d %f\\n", a * 2, b + 1.0); return 0; }'
        )
        assert out == "14 3.500000\n"

    def test_integer_division_and_modulo(self):
        out = _single_rank_stdout(
            'int main() { printf("%d %d\\n", 7 / 2, 7 % 3); return 0; }'
        )
        assert out == "3 1\n"

    def test_for_loop_accumulation(self):
        out = _single_rank_stdout(
            'int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } '
            'printf("%d\\n", s); return 0; }'
        )
        assert out == "45\n"

    def test_while_break_continue(self):
        source = (
            "int main() {\n"
            "    int i = 0;\n"
            "    int total = 0;\n"
            "    while (1) {\n"
            "        i++;\n"
            "        if (i > 10) {\n"
            "            break;\n"
            "        }\n"
            "        if (i % 2 == 0) {\n"
            "            continue;\n"
            "        }\n"
            "        total += i;\n"
            "    }\n"
            '    printf("%d\\n", total);\n'
            "    return 0;\n"
            "}\n"
        )
        assert _single_rank_stdout(source) == "25\n"

    def test_arrays_and_pointers(self):
        source = (
            "#include <stdlib.h>\n"
            "int main() {\n"
            "    int i;\n"
            "    double *v = (double *) malloc(4 * sizeof(double));\n"
            "    double fixed[3];\n"
            "    for (i = 0; i < 4; i++) {\n"
            "        v[i] = (double) i * 2.0;\n"
            "    }\n"
            "    fixed[0] = v[3];\n"
            '    printf("%f %f\\n", v[2], fixed[0]);\n'
            "    free(v);\n"
            "    return 0;\n"
            "}\n"
        )
        assert _single_rank_stdout(source) == "4.000000 6.000000\n"

    def test_ternary_and_logical_ops(self):
        out = _single_rank_stdout(
            'int main() { int a = 5; int b = (a > 3 && a < 10) ? 1 : 0; printf("%d\\n", b); return 0; }'
        )
        assert out == "1\n"

    def test_math_builtins(self):
        out = _single_rank_stdout(
            '#include <math.h>\nint main() { printf("%f\\n", sqrt(16.0) + pow(2.0, 3.0)); return 0; }'
        )
        assert out == "12.000000\n"

    def test_user_defined_function_call(self):
        source = (
            "double square(double x) {\n"
            "    return x * x;\n"
            "}\n"
            "int main() {\n"
            '    printf("%f\\n", square(3.0) + square(4.0));\n'
            "    return 0;\n"
            "}\n"
        )
        assert _single_rank_stdout(source) == "25.000000\n"

    def test_switch_statement(self):
        source = (
            "int main() {\n"
            "    int mode = 2;\n"
            "    int out = 0;\n"
            "    switch (mode) {\n"
            "        case 1:\n"
            "            out = 10;\n"
            "            break;\n"
            "        case 2:\n"
            "            out = 20;\n"
            "            break;\n"
            "        default:\n"
            "            out = 30;\n"
            "    }\n"
            '    printf("%d\\n", out);\n'
            "    return 0;\n"
            "}\n"
        )
        assert _single_rank_stdout(source) == "20\n"

    def test_rand_is_deterministic_per_seed(self):
        source = (
            "#include <stdlib.h>\n"
            "int main() {\n"
            "    srand(7);\n"
            '    printf("%d %d\\n", rand() % 100, rand() % 100);\n'
            "    return 0;\n"
            "}\n"
        )
        assert _single_rank_stdout(source) == _single_rank_stdout(source)

    def test_exit_code_propagates(self):
        result = run_program("int main() { return 3; }", num_ranks=1)
        assert result.ranks[0].exit_code == 3
        assert not result.ok


class TestMPIPrograms:
    def test_pi_program_on_multiple_rank_counts(self, pi_source):
        for ranks in (1, 2, 4):
            result = run_program(pi_source, num_ranks=ranks)
            assert result.ok, result.errors()
            assert abs(first_float(result.stdout) - 3.14159265) < 1e-3

    def test_send_recv_roundtrip_program(self):
        source = (
            "#include <stdio.h>\n"
            "#include <mpi.h>\n"
            "int main(int argc, char **argv) {\n"
            "    int rank, size;\n"
            "    double value = 0.0;\n"
            "    MPI_Init(&argc, &argv);\n"
            "    MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n"
            "    MPI_Comm_size(MPI_COMM_WORLD, &size);\n"
            "    if (rank == 0) {\n"
            "        value = 3.5;\n"
            "        MPI_Send(&value, 1, MPI_DOUBLE, 1, 0, MPI_COMM_WORLD);\n"
            "    }\n"
            "    if (rank == 1) {\n"
            "        MPI_Recv(&value, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n"
            '        printf("received %f\\n", value);\n'
            "    }\n"
            "    MPI_Finalize();\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_program(source, num_ranks=2)
        assert result.ok
        assert "received 3.500000" in result.stdout

    def test_deadlocked_program_reports_error(self):
        source = (
            "#include <mpi.h>\n"
            "int main(int argc, char **argv) {\n"
            "    int rank, size;\n"
            "    double v = 0.0;\n"
            "    MPI_Init(&argc, &argv);\n"
            "    MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n"
            "    MPI_Comm_size(MPI_COMM_WORLD, &size);\n"
            "    MPI_Recv(&v, 1, MPI_DOUBLE, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n"
            "    MPI_Finalize();\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_program(source, num_ranks=1, timeout=0.5)
        assert not result.ok
        assert result.errors()

    def test_undefined_identifier_is_reported_not_raised(self):
        result = run_program("int main() { x = y + 1; return 0; }", num_ranks=1)
        assert not result.ok
        assert "undefined identifier" in result.errors()[0]


#: Programs that never finish on their own, each stopped at the run deadline.
RUNAWAY_PROGRAMS = {
    "for": "int main() { int i; for (i = 0; ; i++) { } return 0; }",
    "while": "int main() { int k = 0; while (1) { k = k + 1; } return 0; }",
    "do-while": "int main() { int k = 0; do { k++; } while (k == k); return 0; }",
    # Bounded depth, exponential calls: only the call check can stop it.
    "call tree": ("int f(int n) { if (n == 0) return 1; return f(n - 1) + f(n - 1); }\n"
                  "int main() { return f(60); }"),
}

RUNAWAY_TIMEOUT = 0.5
RUNAWAY_ERROR = ("deadlock: rank {rank} did not finish within 0.5s (no blocking "
                 "MPI call in progress — runaway computation?)")


def _live_workers() -> set:
    return {thread for thread in threading.enumerate()
            if thread.name.endswith("(worker)") and thread.is_alive()}


def _run_bounded(source: str, num_ranks: int):
    """Run ``source`` and assert the run ends at its deadline, leaking no rank."""
    before = _live_workers()
    started = time.monotonic()
    result = run_program(source, num_ranks=num_ranks, timeout=RUNAWAY_TIMEOUT)
    assert time.monotonic() - started < RUNAWAY_TIMEOUT + 0.25
    assert not (_live_workers() - before)
    return result


class TestRunawayRanks:
    @pytest.mark.parametrize("num_ranks", [1, 4])
    @pytest.mark.parametrize("shape", sorted(RUNAWAY_PROGRAMS))
    def test_runaway_rank_stops_at_the_deadline(self, shape, num_ranks):
        result = _run_bounded(RUNAWAY_PROGRAMS[shape], num_ranks)
        assert [r.error for r in result.ranks] == [
            RUNAWAY_ERROR.format(rank=rank) for rank in range(num_ranks)]
        assert all(r.blocked_in is None for r in result.ranks)

    @pytest.mark.parametrize("num_ranks", [1, 4])
    def test_unbounded_recursion_fails_fast(self, num_ranks):
        result = _run_bounded(
            "int f(int n) { return f(n + 1); }\nint main() { return f(0); }",
            num_ranks)
        assert all(r.error.startswith("RecursionError: maximum recursion depth")
                   for r in result.ranks)

    @pytest.mark.parametrize("call, error", [
        ("MPI_Recv(&v, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE)",
         "SimulationDeadlock: rank {rank} timed out waiting for a message "
         "from rank 0 (tag 0)"),
        ("MPI_Barrier(MPI_COMM_WORLD)",
         "SimulationDeadlock: rank {rank} timed out in MPI_Barrier after 0.5s"),
    ])
    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_blocked_ranks_wake_when_their_peer_runs_away(self, call, error,
                                                          num_ranks):
        source = (
            "#include <mpi.h>\n"
            "int main(int argc, char **argv) {\n"
            "    int rank;\n"
            "    double v = 0.0;\n"
            "    MPI_Init(&argc, &argv);\n"
            "    MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n"
            "    if (rank == 0) {\n"
            "        while (1) { v = v + 1.0; }\n"
            "        MPI_Send(&v, 1, MPI_DOUBLE, 1, 0, MPI_COMM_WORLD);\n"
            "    } else {\n"
            f"        {call};\n"
            "    }\n"
            "    MPI_Finalize();\n"
            "    return 0;\n"
            "}\n"
        )
        result = _run_bounded(source, num_ranks)
        assert result.ranks[0].error == RUNAWAY_ERROR.format(rank=0)
        for rank_result in result.ranks[1:]:
            assert rank_result.error.startswith(
                error.format(rank=rank_result.rank))
            assert rank_result.blocked_in.startswith(call.split("(")[0])


class TestValidation:
    def test_validate_program_full_pass(self, pi_source):
        verdict = validate_program(pi_source, num_ranks=4,
                                   check=expect_close(3.14159265, 1e-3))
        assert verdict.parses and verdict.runs and verdict.check_passed
        assert verdict.valid

    def test_validate_rejects_unparseable(self):
        verdict = validate_program("int main( { }", num_ranks=1)
        assert not verdict.parses
        assert not verdict.valid

    def test_validate_without_check(self, pi_source):
        verdict = validate_program(pi_source, num_ranks=2)
        assert verdict.valid
        assert verdict.check_passed is None

    def test_validate_failed_numerical_check(self, pi_source):
        verdict = validate_program(pi_source, num_ranks=2, check=expect_close(99.0, 0.1))
        assert verdict.parses and verdict.runs
        assert verdict.check_passed is False
        assert not verdict.valid

    def test_float_extraction_helpers(self):
        text = "a = 1.5 b = -2.25 c = 3"
        assert first_float(text) == 1.5
        assert all_floats(text) == [1.5, -2.25]
        assert first_float("no numbers") is None
