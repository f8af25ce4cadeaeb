"""The three perfbench workloads.

Each driver sets the program up several times (``setup_s`` is the median),
runs a closed loop for ``seconds``, stops the program, then checks every
answer against the sequential oracle (untimed).  Drivers return a
:class:`RunResult`; ``run.py`` turns it into the report.

Serving workloads talk to the real CLIs (``python -m repro.serving.server`` /
``repro.serving.router``) over the v1 routes only.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from client import Client, Outcome
from procs import ServingProcess

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: edit-replay sends every JOB_EVERY-th edit of connection B as a one-item
#: batch job, polled every JOB_POLL_SECONDS until done.
JOB_EVERY = 8
JOB_POLL_SECONDS = 0.005


@dataclass
class Served:
    """One completed request: what was asked and what came back."""

    request: workloads.Request
    outcome: Outcome
    #: Program the oracle decodes (the unedited one for edit-replay).
    oracle_code: str = ""
    expect_cached: bool = False


@dataclass
class RunResult:
    setup: list[float] = field(default_factory=list)
    #: Seconds per request (or per optimizer step).
    latencies: list[float] = field(default_factory=list)
    firsts: list[float] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    tokens: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    exact: int = 0
    checked: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    trace_dirs: list[Path] = field(default_factory=list)
    served: list[Served] = field(default_factory=list)


class Context:
    """What every driver needs: paths, seed, duration, tracing switch."""

    def __init__(self, root: Path, run_dir: Path, seed: int, seconds: float,
                 traced: bool) -> None:
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.checkpoint = Path(__file__).resolve().parent / "checkpoint"
        self._oracle = None

    @property
    def oracle(self):
        if self._oracle is None:
            from oracle import Oracle
            self._oracle = Oracle(self.checkpoint)
        return self._oracle


# ------------------------------------------------------------------ set-up


def _cold_start(ctx: Context, module: str, args: list[str], first: workloads.Request,
                name: str) -> tuple[ServingProcess, float, Outcome]:
    """Spawn one serving process; time to its first answered v1 request.

    A router answers 503 until its worker is up, so the first request is
    re-sent at once until it is answered; no readiness endpoint is polled.
    """
    proc = ServingProcess(module, args, root=ctx.root, run_dir=ctx.run_dir,
                          traced=ctx.traced, name=name)
    try:
        proc.start()
        client = Client(proc.port)
        deadline = time.monotonic() + 120.0
        while True:
            outcome = client.advise(first.body())
            if outcome.ok or outcome.status != 503 or time.monotonic() > deadline:
                break
            time.sleep(0.005)
    except BaseException:
        proc.stop()
        raise
    seconds = time.perf_counter() - proc.spawned_at
    proc.start_timing()
    return proc, seconds, outcome


def _set_up(ctx: Context, result: RunResult, module: str, make_args,
            first: workloads.Request) -> ServingProcess:
    """``SETUP_REPEATS`` cold starts; the last process is kept for the run."""
    proc = None
    for index in range(SETUP_REPEATS):
        if proc is not None:
            proc.stop()
            result.trace_dirs.append(proc.trace_dir)
        proc, seconds, outcome = _cold_start(ctx, module, make_args(index), first,
                                             name=f"{module.rsplit('.', 1)[1]}{index}")
        result.setup.append(seconds)
        result.attempted += 1
        if outcome.ok:
            result.served.append(Served(first, outcome, first.code))
        else:
            result.failed += 1
            result.errors.append(f"set-up request: {outcome.error}")
    return proc


def _server_args(ctx: Context) -> list[str]:
    return ["--port", "0", "--checkpoint", str(ctx.checkpoint)]


def _add_cpu(result: RunResult, before: tuple[float, float],
             after: tuple[float, float]) -> None:
    """Add the server CPU between two ``cpu_times`` samples; the system
    part is kept in the notes (kernel and wake-up cost, not the program's)."""
    user, system = after[0] - before[0], after[1] - before[1]
    result.cpu_seconds += user + system
    result.notes["cpu_system_s"] = round(result.notes.get("cpu_system_s", 0.0) + system, 2)


def _finish(ctx: Context, result: RunResult, proc: ServingProcess) -> None:
    result.peak_rss_mb = proc.peak_rss_mb()
    proc.stop()
    result.trace_dirs.append(proc.trace_dir)


def _record(result: RunResult, served: Served, lock: threading.Lock) -> None:
    with lock:
        result.attempted += 1
        if served.outcome.ok:
            result.served.append(served)
            result.completed += 1
            result.latencies.append(served.outcome.latency)
            if served.outcome.first:
                result.firsts.append(served.outcome.first)
        else:
            result.failed += 1
            result.errors.append(served.outcome.error)


def _check(ctx: Context, result: RunResult, candidates: int = 1) -> None:
    """Untimed: every answer against the sequential oracle."""
    for served in result.served:
        response = served.outcome.body
        strategy = served.request.strategy
        n = candidates if served.request.verify else 1
        result.checked += 1
        if served.expect_cached and response.get("cached") is not True:
            result.errors.append("layout-only edit missed the cache")
            continue
        if ctx.oracle.matches(served.oracle_code, strategy, response, n):
            result.exact += 1
        else:
            result.errors.append(
                f"answer differs from the sequential oracle ({strategy})")


def _count_tokens(ctx: Context, result: RunResult, served: list[Served]) -> None:
    result.tokens = sum(ctx.oracle.tokens(s.oracle_code, s.request.strategy)
                        for s in served)


# ------------------------------------------------------------- edit-replay


def edit_replay(ctx: Context) -> RunResult:
    """Layout-only edits of cached programs through the router."""
    programs = workloads.edit_replay(ctx.seed)
    first = workloads.Request(programs[0], workloads.GREEDY)
    result = RunResult()
    proc = _set_up(
        ctx, result, "repro.serving.router",
        lambda i: ["--replicas", "1", "--port", "0", "--checkpoint",
                   str(ctx.checkpoint), "--pool-root", str(ctx.run_dir / f"pool{i}")],
        first)
    client = Client(proc.port)
    lock = threading.Lock()
    # Untimed warm-up: decode every program once so every replay hits.
    for program in programs[1:]:
        request = workloads.Request(program, workloads.GREEDY)
        _record(result, Served(request, client.advise(request.body()), program), lock)
    warm = len(result.served)
    proc.start_timing()
    result.latencies.clear()
    result.firsts.clear()
    result.completed = 0

    def editor(connection: int) -> None:
        rng = random.Random(ctx.seed * 1000 + connection)
        serial = 0
        while time.perf_counter() < deadline:
            program = programs[rng.randrange(len(programs))]
            serial += 1
            code = workloads.layout_edit(program, rng, serial * 2 + connection)
            request = workloads.Request(code, workloads.GREEDY)
            if connection == 0:
                outcome = client.stream(request.body())
            elif serial % JOB_EVERY == 0:
                outcome = _one_item_job(client, request)
            else:
                outcome = client.advise(request.body())
            _record(result, Served(request, outcome, program, expect_cached=True),
                    lock)

    cpu0 = proc.cpu_times()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    threads = [threading.Thread(target=editor, args=(c,)) for c in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.seconds = time.perf_counter() - start
    _add_cpu(result, cpu0, proc.cpu_times())
    _finish(ctx, result, proc)
    _check(ctx, result)
    timed = result.served[warm:]
    result.tokens = sum(s.outcome.tokens or ctx.oracle.tokens(s.oracle_code,
                                                              s.request.strategy)
                        for s in timed)
    return result


def _one_item_job(client: Client, request: workloads.Request) -> Outcome:
    """Submit ``request`` as a one-item ``/v1/advise/batch`` job and poll
    ``/v1/jobs/{id}`` until it is done; latency is submit to done."""
    start = time.perf_counter()
    submitted = client.call("POST", "/v1/advise/batch", {"items": [request.body()]})
    job_id = submitted.body.get("job_id") if submitted.ok else None
    if not job_id:
        submitted.ok = False
        submitted.error = f"batch submit: {submitted.error or submitted.body}"
        return submitted
    while True:
        polled = client.call("GET", f"/v1/jobs/{job_id}")
        if not polled.ok:
            polled.error = f"job poll: {polled.error}"
            return polled
        if polled.body.get("status") == "done":
            break
        if time.perf_counter() - start > client.timeout:
            return Outcome(False, error=f"job {job_id} not done within the "
                           f"client timeout", latency=time.perf_counter() - start)
        time.sleep(JOB_POLL_SECONDS)
    latency = time.perf_counter() - start
    envelope = (polled.body.get("results") or [{}])[0]
    if envelope.get("status") != "ok":
        return Outcome(False, 200, error=f"job item: {envelope}", latency=latency)
    return Outcome(True, 200, envelope.get("response") or {}, latency=latency,
                   first=latency)


# ----------------------------------------------------------- verify-advise


#: Seconds of ``--seconds`` per verify-advise episode.
VERIFY_EPISODE_SECONDS = 15.0


def verify_advise(ctx: Context) -> RunResult:
    """Verified advice, one connection, fixed order, in fresh servers.

    Leaked simulator threads slow every later request of a process, so a
    deadline falling between a fast request and a 20-second one makes runs
    incomparable.  The timed part is instead whole episodes: the same
    requests (``workloads.VERIFY_EPISODE``), each episode in a fresh server (the last
    cold starts of the set-up), ``seconds / VERIFY_EPISODE_SECONDS`` of them.
    """
    requests = workloads.verify_advise(ctx.seed)
    first = workloads.Request(requests[0].code, workloads.GREEDY)
    episodes = max(1, round(ctx.seconds / VERIFY_EPISODE_SECONDS))
    starts = max(SETUP_REPEATS, episodes)
    result = RunResult()
    lock = threading.Lock()
    timed: list[Served] = []
    for index in range(starts):
        proc, seconds, outcome = _cold_start(ctx, "repro.serving.server",
                                             _server_args(ctx), first,
                                             name=f"server{index}")
        result.setup.append(seconds)
        _record(result, Served(first, outcome, first.code), lock)
        if index >= starts - episodes:
            client = Client(proc.port)
            cpu0 = proc.cpu_times()
            begin = time.perf_counter()
            for request in requests:
                served = Served(request, client.advise(request.body()), request.code)
                _record(result, served, lock)
                if served.outcome.ok:
                    timed.append(served)
            result.seconds += time.perf_counter() - begin
            _add_cpu(result, cpu0, proc.cpu_times())
        rss = proc.peak_rss_mb()
        proc.stop()
        result.trace_dirs.append(proc.trace_dir)
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
    # The set-up answers are checked but are not timed requests.
    result.latencies = [s.outcome.latency for s in timed]
    result.firsts = [s.outcome.first for s in timed]
    result.completed = len(timed)
    _check(ctx, result, candidates=4)
    _count_tokens(ctx, result, timed)
    verdicts = [str((s.outcome.body.get("verification") or {}).get("verified"))
                for s in timed]
    result.notes["episodes"] = episodes
    result.notes["verdicts"] = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    result.notes["latencies_s"] = [round(s.outcome.latency, 3) for s in timed]
    return result


# ------------------------------------------------------------- train-steps

#: Optimizer steps per round; a round starts from the seeded init.
TRAIN_STEPS = 6
REFERENCE = Path(__file__).resolve().parent / "train_reference.json"
#: Relative tolerance on the losses against the committed fp64 values.
LOSS_TOLERANCE = 1e-9


def _train_setup():
    """Corpus, dataset and encoder build plus model init (what setup_s times)."""
    from repro.model.trainer import Trainer
    from repro.model.transformer import Seq2SeqTransformer
    from repro.tokenization.code_tokenizer import ExampleEncoder, SequenceConfig

    config = workloads.quick_experiment_config()
    dataset = workloads.build_bench_dataset()
    encoder = ExampleEncoder.fit(dataset.splits.train, SequenceConfig(
        max_source_tokens=config.max_source_tokens,
        max_xsbt_tokens=config.max_xsbt_tokens,
        max_target_tokens=config.max_target_tokens), use_xsbt=config.use_xsbt)
    config.model.vocab_size = len(encoder.vocab)
    train = encoder.encode_examples(dataset.splits.train)
    validation = encoder.encode_examples(dataset.splits.validation)

    def fresh_trainer():
        model = Seq2SeqTransformer(config.model)
        return Trainer(model, encoder.vocab.pad_id, config.training)

    trainer = fresh_trainer()
    return config, encoder, train, validation, fresh_trainer, trainer


def _import_seconds(ctx: Context) -> float:
    """A fresh interpreter importing the training stack."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.model.trainer, repro.mpirical"],
                   env=env, check=True, cwd=ctx.root)
    return time.perf_counter() - begin


def train_steps(ctx: Context) -> RunResult:
    """Fixed optimizer steps from the seeded init, plus one validation pass.

    The inputs are the quick-profile corpus (seed 11) and do not depend on
    the workload seed: the losses are checked against committed fp64 values.
    """
    import json

    if ctx.traced:
        from layers import TARGETS
        from spans import Tracer
        tracer = Tracer()
        tracer.install(TARGETS)
    result = RunResult()
    setup = None
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        setup = _train_setup()
        result.setup.append(time.perf_counter() - begin)
    config, encoder, train, validation, fresh_trainer, trainer = setup
    size = config.training.batch_size
    batches = [train[i:i + size] for i in range(0, TRAIN_STEPS * size, size)]
    pad = encoder.vocab.pad_id
    target_tokens = [sum(sum(1 for t in ex.decoder_ids[1:] if t != pad) for ex in b)
                     for b in batches]
    # A process's very first optimizer step is half again slower (first-touch
    # allocation); take it untimed on a throwaway model so every timed round
    # starts warm and ttft_p50_ms does not depend on how many rounds fit.
    fresh_trainer().train_step(batches[0])

    if ctx.traced:
        tracer.reset()
    rounds: list[list[float]] = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    deadline = start + ctx.seconds
    while not rounds or time.perf_counter() < deadline:
        if rounds:
            trainer = fresh_trainer()
        losses = []
        for index, batch in enumerate(batches):
            begin = time.perf_counter()
            loss, _accuracy = trainer.train_step(batch)
            elapsed = time.perf_counter() - begin
            result.latencies.append(elapsed)
            if index == 0:
                result.firsts.append(elapsed)
            result.tokens += target_tokens[index]
            result.completed += 1
            losses.append(loss)
        validation_loss, _ = trainer.evaluate(validation)
        losses.append(validation_loss)
        rounds.append(losses)
    result.seconds = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result.cpu_seconds = (usage1.ru_utime - usage0.ru_utime
                          + usage1.ru_stime - usage0.ru_stime)
    result.peak_rss_mb = usage1.ru_maxrss / 1024.0
    result.attempted = result.completed
    if ctx.traced:
        tracer.uninstall()
        tracer.value("setup.import", _import_seconds(ctx))
        for seconds in result.setup:
            tracer.value("setup.load", seconds)
        snapshot_dir = ctx.run_dir / "trace-train"
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(snapshot_dir / "train.json"))
        result.trace_dirs.append(snapshot_dir)

    reference = json.loads(REFERENCE.read_text())
    expected = reference["losses"] + [reference["validation_loss"]]
    for losses in rounds:
        result.checked += 1
        close = len(losses) == len(expected) and all(
            abs(a - b) <= LOSS_TOLERANCE * max(1.0, abs(b))
            for a, b in zip(losses, expected))
        if close:
            result.exact += 1
        else:
            result.errors.append(f"losses {losses} differ from the fp64 "
                                 f"reference {expected}")
    result.notes["rounds"] = len(rounds)
    result.notes["final_losses"] = rounds[0][-2:]
    return result


DRIVERS = {
    "edit-replay": edit_replay,
    "verify-advise": verify_advise,
    "train-steps": train_steps,
}
