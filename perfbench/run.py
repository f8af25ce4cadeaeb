"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload edit-replay --seed 1 --seconds 15 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``) from
the root of a checkout, prints an environment stamp, a table of every metric
with its unit and sample count, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
makes an untraced run and then a traced one, and reports the per-layer
metrics of the traced run plus ``overhead.<metric>_pct``: how much tracing
moved each end-to-end metric.

Exit code 0 when every answer matched the sequential oracle and nothing
failed; 1 when the run finished but was not correct; 2 when the checkout has
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics in report order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ttft_p50_ms": "ms",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "tokens_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "exact_match": "share",
}


def _checkout_ok() -> bool:
    return (ROOT / "src" / "repro" / "serving" / "server.py").is_file()


def environment_stamp(seed: int, workload: str) -> dict:
    """Python, NumPy, BLAS (name, threads), nproc, source and model revision."""
    import hashlib

    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    manifest = json.loads((HERE / "checkpoint" / "manifest.json").read_text())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "source_sha256": digest.hexdigest()[:16],
        "git_sha": _git_sha(),
        "checkpoint_revision": manifest.get("revision"),
        "workload": workload,
        "seed": seed,
    }


def _blas_threads() -> int | str:
    """OpenBLAS's thread count, asked of the loaded library when possible."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def host_sample() -> dict:
    """Machine-wide CPU tick counters, load and Python speed, to diff around
    a run."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return {}
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return {"total": sum(fields[:8]), "idle": idle, "steal": steal, "load1": load,
            "python_mops": python_speed()}


def python_speed(seconds: float = 1.0) -> float:
    """Pure-Python loop iterations per microsecond: the machine's speed now.

    The median over tenth-second windows of each window's fastest pass, so a
    figure near the fast phase's speed means the machine was mostly fast.
    """
    windows = []
    for _ in range(max(1, round(seconds * 10))):
        best = 0.0
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            begin = time.perf_counter()
            total = 0
            for value in range(20000):
                total += value
            best = max(best, 20000 / ((time.perf_counter() - begin) * 1e6))
        windows.append(best)
    return statistics.median(windows)


def host_during(before: dict, after: dict) -> dict:
    """Steal and busy share of the machine between two samples."""
    if not before or not after:
        return {}
    ticks = max(1, after["total"] - before["total"])
    return {
        "steal_share": round((after["steal"] - before["steal"]) / ticks, 4),
        "busy_share": round(1 - (after["idle"] - before["idle"]) / ticks, 4),
        "load1_after": after["load1"],
        "python_mops_before": round(before["python_mops"], 2),
        "python_mops_after": round(after["python_mops"], 2),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


# ---------------------------------------------------------------- metrics


def end_to_end(result) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) for one run."""
    latencies = result.latencies
    values = {
        "setup_s": (statistics.median(result.setup), len(result.setup)),
        "ttft_p50_ms": (statistics.median(result.firsts) * 1000.0
                        if result.firsts else 0.0, len(result.firsts)),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0
                           if latencies else 0.0, len(latencies)),
        "throughput_rps": (result.completed / result.seconds, result.completed),
        "tokens_per_s": (result.tokens / result.seconds, result.completed),
        "cpu_ms_per_op": (result.cpu_seconds * 1000.0 / max(1, result.completed),
                          result.completed),
        "peak_rss_mb": (result.peak_rss_mb, 1),
        "exact_match": (result.exact / result.checked if result.checked else 0.0,
                        result.checked),
    }
    return {name: (value, END_TO_END[name], samples)
            for name, (value, samples) in values.items()}


def _print_table(title: str, rows: list[tuple[str, float, str, object]]) -> None:
    print(f"-- {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.4f} {unit:<6} {note}")


def _run_once(workload: str, seed: int, seconds: float, traced: bool):
    from drivers import DRIVERS, Context

    run_dir = ROOT / ".perfbench_run" / f"{os.getpid()}-{'t' if traced else 'u'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ctx = Context(ROOT, run_dir, seed, seconds, traced)
        result = DRIVERS[workload](ctx)
        snapshot = None
        if traced:
            from spans import merge_snapshots
            files = [path for directory in result.trace_dirs
                     for path in sorted(directory.glob("*.json"))]
            snapshot = merge_snapshots([json.loads(p.read_text()) for p in files])
        return result, snapshot
    finally:
        from procs import stop_all
        stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


def _correct(result) -> bool:
    return result.failed == 0 and result.checked > 0 and result.exact == result.checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stopped benchmark still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not _checkout_ok():
        print(f"perfbench: no program under {ROOT / 'src'}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from drivers import DRIVERS

    if args.workload not in DRIVERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(DRIVERS)}", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment_stamp(args.seed, args.workload)))
    started = time.perf_counter()
    before = host_sample()
    result, _ = _run_once(args.workload, args.seed, args.seconds, traced=False)
    print("host: " + json.dumps(host_during(before, host_sample())))
    plain = end_to_end(result)
    correct = _correct(result)
    attempted, failed = result.attempted, result.failed
    _print_table("end to end (untraced)", [
        (name, value, unit, f"n={samples}")
        for name, (value, unit, samples) in plain.items()])
    error_share = failed / attempted if attempted else 0.0
    print(f"  {'error_share':<28} {error_share:>14.4f} share  "
          f"failed={failed} attempted={attempted}")
    print(f"  notes: {json.dumps(result.notes)}")
    for error in result.errors[:10]:
        print(f"  error: {error}")

    if args.trace:
        from layers import layer_metrics

        traced_result, snapshot = _run_once(args.workload, args.seed,
                                            args.seconds, traced=True)
        traced = end_to_end(traced_result)
        correct = correct and _correct(traced_result)
        attempted += traced_result.attempted
        failed += traced_result.failed
        for error in traced_result.errors[:10]:
            print(f"  error (traced run): {error}")
        layers = layer_metrics(snapshot)
        for name in END_TO_END:
            value, base = traced[name][0], plain[name][0]
            layers[f"overhead.{name}_pct"] = (
                (value - base) / base * 100.0 if base else 0.0, "%")
        _print_table("per layer (traced run)", [
            (name, value, unit, "") for name, (value, unit) in layers.items()])
        if snapshot["missing"]:
            print("  missing trace targets: " + ", ".join(snapshot["missing"]))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": plain[name][0], "unit": plain[name][1]}
                   for name in END_TO_END}
    print(f"  wall {time.perf_counter() - started:.1f}s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
