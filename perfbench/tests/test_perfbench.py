"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from procs import ServingProcess, group_members  # noqa: E402
from spans import Target, Tracer, merge_snapshots  # noqa: E402


# ----------------------------------------------------------- workload inputs


def test_verify_advise_is_one_fixed_episode():
    requests = workloads.verify_advise(3)
    assert requests == workloads.verify_advise(4)
    assert len(requests) == len(workloads.VERIFY_EPISODE)
    assert all(r.verify for r in requests)
    assert {r.strategy["name"] for r in requests} == {"greedy", "beam"}


def test_edit_replay_edits_keep_the_cache_key():
    from repro.serving.cache import canonical_cache_key

    programs = workloads.edit_replay(2)
    assert programs == workloads.edit_replay(2)
    assert programs != workloads.edit_replay(3)
    bodies = set()
    for index, program in enumerate(programs):
        key = canonical_cache_key(program)
        for serial in range(4):
            edited = workloads.layout_edit(program, random.Random(index * 10 + serial),
                                           serial)
            assert edited != program
            assert canonical_cache_key(edited) == key
            bodies.add(edited)
    assert len(bodies) == len(programs) * 4, "every edited body is unique"


def test_layout_edit_is_deterministic():
    program = workloads.edit_replay(2)[0]
    assert (workloads.layout_edit(program, random.Random(1), 3)
            == workloads.layout_edit(program, random.Random(1), 3))


# ------------------------------------------------------------------ tracing


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    request = tracer.enter("server.self", unit=True)
    clock.now = 1.0
    parse = tracer.enter("clang.parse")
    clock.now = 3.0
    lex = tracer.enter("tokenization.lex")
    clock.now = 3.5
    tracer.exit(lex)
    clock.now = 4.0
    tracer.exit(parse)
    clock.now = 4.25
    tracer.exit(request)
    # request 4.25 s, of which parse covers 3 s; parse 3 s, of which lex 0.5 s.
    assert tracer.samples["server.self"] == [1.25]
    assert tracer.samples["clang.parse"] == [2.5]
    assert tracer.samples["tokenization.lex"] == [0.5]


def test_unit_spans_sum_repeated_children_into_one_sample():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _step in range(2):
        step = tracer.enter("model.decode_step", unit=True)
        for _layer in range(2):
            attn = tracer.enter("model.self_attn", only_under=("model.decode_step",))
            clock.now += 0.25
            tracer.exit(attn)
        clock.now += 0.5
        tracer.exit(step)
    assert tracer.samples["model.self_attn"] == [0.5, 0.5]
    assert tracer.samples["model.decode_step"] == [0.5, 0.5]


def test_leaf_and_only_under_suppress_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    encode = tracer.enter("model.encode", leaf=True)
    assert tracer.enter("model.self_attn") is None
    clock.now = 2.0
    tracer.exit(encode)
    assert tracer.enter("model.out_proj", only_under=("model.decode_step",)) is None
    assert tracer.samples == {"model.encode": [2.0]}


def test_missing_targets_are_reported_not_raised():
    tracer = Tracer()
    tracer.install([
        Target("repro.serving.batching_gone:MicroBatcher.submit", "x"),
        Target("repro.model.layers:Linear.forward_data_gone", "y"),
        Target("repro.model.layers:Linear.forward_data", "model.out_proj"),
    ])
    try:
        assert tracer.missing == ["repro.serving.batching_gone:MicroBatcher.submit",
                                  "repro.model.layers:Linear.forward_data_gone"]
        assert tracer.installed == ["repro.model.layers:Linear.forward_data"]
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(merge_snapshots([tracer.snapshot()]))
    assert metrics["trace.missing_targets"] == (2.0, "count")
    assert metrics["model.out_proj_ms"] == (0.0, "ms")


def test_a_broken_hook_never_breaks_the_traced_call():
    def broken(*args):
        raise KeyError("renamed argument")

    tracer = Tracer()
    traced = tracer.wrap(Target("m:f", "x", kind="count", count_fn=broken,
                                enter_fn=broken), lambda value: value * 2)
    assert traced(21) == 42
    assert tracer.counts == {}


def test_wrapped_functions_are_rebound_where_imported():
    import repro.serving.cache as cache
    import repro.serving.service as service

    tracer = Tracer()
    tracer.install([Target("repro.serving.cache:canonical_cache_key", "cache.key")])
    try:
        assert hasattr(cache.canonical_cache_key, "__perfbench_original__")
        assert service.canonical_cache_key is cache.canonical_cache_key
    finally:
        tracer.uninstall()
    assert not hasattr(service.canonical_cache_key, "__perfbench_original__")


def test_every_layer_target_exists_today():
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    tracer.uninstall()
    assert tracer.missing == []


# ----------------------------------------------------------- BENCHMARK.json


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert declared == run.END_TO_END
    assert "setup_s" in declared


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    produced = layers.layer_metrics(merge_snapshots([]))
    for name in run.END_TO_END:
        produced[f"overhead.{name}_pct"] = (0.0, "%")
    assert declared == {name: unit for name, (_value, unit) in produced.items()}


def test_workloads_match_benchmark_json():
    from drivers import DRIVERS

    assert [w["name"] for w in _benchmark()["workloads"]] == list(DRIVERS)


# --------------------------------------------------------------- host stamp


def test_host_shares_come_from_tick_deltas():
    before = {"total": 1000, "idle": 600, "steal": 10, "load1": 0.5,
              "python_mops": 20.0}
    after = {"total": 2000, "idle": 900, "steal": 60, "load1": 1.5,
             "python_mops": 25.0}
    host = run.host_during(before, after)
    assert host["steal_share"] == 0.05
    assert host["busy_share"] == 0.7
    assert host["python_mops_after"] == 25.0
    assert run.host_during({}, after) == {}


# ------------------------------------------------------------ process hygiene


class _Spawner(ServingProcess):
    """A stand-in serving CLI: it starts a child of its own (as a router
    starts its workers), prints a listening line and sleeps."""

    def command(self) -> list[str]:
        script = ("import subprocess, sys, time\n"
                  "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
                  "print('listening on http://127.0.0.1:1', flush=True)\n"
                  "time.sleep(60)\n")
        return [sys.executable, "-c", script]


def test_stop_waits_for_the_whole_process_tree(tmp_path):
    proc = _Spawner("none", [], root=ROOT, run_dir=tmp_path).start()
    deadline = time.monotonic() + 10.0
    while len(group_members(proc.proc.pid)) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(group_members(proc.proc.pid)) == 2
    proc.stop()
    assert group_members(proc.proc.pid) == []
