"""The per-layer trace table: what the traced run wraps and what it reports.

Every target names a function or method of the program by its import
path.  Renaming or deleting a target (the ``forward_data`` twins, or
``InferenceService._submit_sched`` once the static batch path is gone) makes
that metric report 0 and lists the path under
``trace.missing_targets``; it never fails the run.

Layer -> the end-to-end metric it should move, and on which workload:

=====================================  ==============================  ===========================
layer metrics                          should move                     on
=====================================  ==============================  ===========================
router.*                               latency_p50_ms, throughput_rps  edit-replay
server.*, api.*                        latency_p50_ms                  edit-replay
clang/xsbt/tokenization/cache.*        latency_p50_ms, cpu_ms_per_op   edit-replay, verify-advise
service.anchor_ms, mpirical.package_ms latency_p50_ms                  edit-replay, verify-advise
sched.*                                ttft_p50_ms, tokens_per_s       verify-advise
model.* (fast path)                    tokens_per_s, ttft_p50_ms       verify-advise
jobs.*                                 latency_p50_ms, throughput_rps  edit-replay
verify.*, mpisim.*                     latency_p50_ms, cpu_ms_per_op   verify-advise
trainer.*                              tokens_per_s                    train-steps
setup.*                                setup_s                         all
=====================================  ==============================  ===========================
"""

from __future__ import annotations

import statistics
import threading
import time

from spans import Target, median_ms

# ---------------------------------------------------------------- helpers


def _attention_name(args, kwargs) -> str:
    return ("model.cross_attn" if kwargs.get("use_cached_kv")
            else "model.self_attn")


def _rows(args, kwargs, result) -> int:
    token_ids = args[1] if len(args) > 1 else kwargs.get("token_ids")
    return int(getattr(token_ids, "shape", (0,))[0])


def _occupancy(args, kwargs, tracer) -> None:
    batch = args[0]
    tracer.value("sched.occupancy", getattr(batch, "num_rows", 0))


def _sched_wait(args, kwargs, tracer) -> None:
    work = args[1] if len(args) > 1 else kwargs.get("work")
    enqueued = getattr(work, "enqueued_at", None)
    if enqueued is not None:
        tracer.value("sched.queue_wait_ms", (time.monotonic() - enqueued) * 1000.0)


def _job_wait(args, kwargs, tracer) -> None:
    job = args[1] if len(args) > 1 else kwargs.get("job")
    submitted = getattr(job, "submitted_at", None)
    if submitted is not None:
        tracer.value("jobs.queue_wait_ms", (time.time() - submitted) * 1000.0)


def _is_none(args, kwargs, result) -> int:
    return 1 if result is None else 0


def _cache_hit(args, kwargs, result) -> int:
    return 0 if result is None else 1


def _over_budget(args, kwargs, result, seconds):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    options = getattr(request, "verify", None)
    if options is None:
        return None
    return 1.0 if seconds * 1000.0 > options.timeout_ms else 0.0


def _verdict_count(status: str):
    def count(args, kwargs, result) -> int:
        verification = getattr(result, "verification", None) or {}
        verified = verification.get("verified")
        observed = ("skipped" if verified == "skipped"
                    else "verified" if verified is True else "failed")
        return 1 if observed == status else 0
    return count


def _leaked_threads(args, kwargs, result, seconds):
    # MPIRuntime.run_source abandons unfinished ranks as daemon threads; the
    # rank workers are plain threads running the nested ``worker`` function.
    return float(sum(1 for thread in threading.enumerate()
                     if thread.name.endswith("(worker)") and thread.is_alive()))


# ---------------------------------------------------------------- targets

_DECODE_STEP = ("model.decode_step",)

TARGETS: list[Target] = [
    # router process
    Target("repro.serving.router:RouterRequestHandler.do_POST", "router.self",
           unit=True),
    Target("repro.serving.router:RouterRequestHandler.do_GET", "router.self",
           unit=True),
    Target("repro.serving.router:Router.affinity_key", "router.affinity_key"),
    Target("repro.serving.router:Router._request", "router.upstream_wait"),
    Target("repro.serving.metrics:RouterMetrics.record_retry", "router.retries",
           kind="count"),
    # worker HTTP layer + contract
    Target("repro.serving.server:AdviseRequestHandler.do_POST", "server.self",
           unit=True),
    Target("repro.serving.server:AdviseRequestHandler.do_GET", "server.self",
           unit=True),
    # A handler blocked on a decode or a job item: waiting, not self time.
    Target("concurrent.futures._base:Future.result", "server.wait"),
    Target("repro.api.contract:AdviseRequest.from_dict", "api.parse"),
    Target("repro.api.contract:parse_batch_advise", "api.parse"),
    Target("repro.api.contract:AdviseResponse.to_dict", "api.render"),
    Target("repro.serving.server:AdviseRequestHandler._send_json", "api.render"),
    # front end: parse, xSBT, lex, cache key
    Target("repro.clang.parser:parse_source_with_diagnostics", "clang.parse"),
    Target("repro.clang.parser:parse_source", "clang.parse"),
    Target("repro.clang.parser:parses_cleanly", "clang.parse"),
    Target("repro.xsbt.xsbt:xsbt_string", "xsbt.build"),
    Target("repro.xsbt.xsbt:xsbt_for_source", "xsbt.build"),
    Target("repro.tokenization.code_tokenizer:tokenize_code", "tokenization.lex"),
    Target("repro.serving.cache:canonical_cache_key", "cache.key"),
    Target("repro.serving.cache:LRUCache.get", "cache.gets", kind="count"),
    Target("repro.serving.cache:LRUCache.get", "cache.hits", kind="count",
           count_fn=_cache_hit),
    Target("repro.serving.service:anchor_result", "service.anchor"),
    Target("repro.mpirical.pipeline:MPIRical._package_prediction",
           "mpirical.package"),
    # continuous scheduler
    Target("repro.serving.sched:InflightBatch.step", "sched.step", unit=True,
           enter_fn=_occupancy),
    Target("repro.serving.sched:ContinuousScheduler._admit", "sched.admit",
           kind="count", enter_fn=_sched_wait),
    Target("repro.model.generation:ContinuousDecoderLoop.join", "sched.joins",
           kind="count"),
    Target("repro.model.generation:ContinuousDecoderLoop.retire", "sched.retires",
           kind="count"),
    Target("repro.serving.service:InferenceService._submit_sched",
           "sched.static_fallbacks", kind="count", count_fn=_is_none),
    # model fast path
    Target("repro.model.transformer:Seq2SeqTransformer.encode", "model.encode",
           kind="leaf"),
    Target("repro.model.transformer:Seq2SeqTransformer.decode_step",
           "model.decode_step", unit=True),
    Target("repro.model.transformer:Seq2SeqTransformer.decode_step",
           "model.tokens", kind="count", count_fn=_rows),
    Target("repro.model.layers:Embedding.lookup_data", "model.embed",
           only_under=_DECODE_STEP),
    Target("repro.model.layers:PositionalEncoding.rows_data", "model.embed",
           only_under=_DECODE_STEP),
    Target("repro.model.layers:PositionalEncoding.slice_data", "model.embed",
           only_under=_DECODE_STEP),
    Target("repro.model.attention:MultiHeadAttention.forward_data",
           "model.self_attn", name_fn=_attention_name, only_under=_DECODE_STEP),
    Target("repro.model.layers:FeedForward.forward_data", "model.ffn",
           only_under=_DECODE_STEP),
    Target("repro.model.layers:LayerNorm.forward_data", "model.norm",
           only_under=_DECODE_STEP),
    Target("repro.model.layers:Linear.forward_data", "model.out_proj",
           only_under=_DECODE_STEP),
    Target("repro.model.decoding:GreedyRowState.advance", "model.advance_greedy"),
    Target("repro.model.decoding:SampleRowState.advance", "model.advance_sample"),
    Target("repro.model.decoding:BeamRowState.advance", "model.advance_beam"),
    Target("repro.model.attention:KVCache.append", "model.kv_append"),
    Target("repro.model.attention:KVCache.reorder_rows", "model.kv_reorder"),
    Target("repro.model.attention:KVCache.insert_rows", "model.kv_insert"),
    Target("repro.model.attention:KVCache.retire_rows", "model.kv_retire"),
    # durable job tier
    Target("repro.serving.joblog:JobLog.append", "jobs.wal_append"),
    Target("repro.serving.joblog:JobLog.sync", "jobs.wal_syncs", kind="count"),
    Target("repro.serving.jobs:JobStore._run_job", "jobs.run", kind="count",
           enter_fn=_job_wait),
    # verification + simulator
    Target("repro.verify.runner:capture_reference", "verify.reference"),
    Target("repro.verify.runner:run_candidate", "verify.candidate"),
    Target("repro.mpirical.pipeline:MPIRical.predict_code_candidates",
           "verify.nbest_decode", kind="leaf"),
    Target("repro.serving.service:InferenceService.apply_verification",
           "verify.over_budget", kind="value", value_fn=_over_budget),
    Target("repro.serving.service:InferenceService.apply_verification",
           "verify.verified", kind="count", count_fn=_verdict_count("verified")),
    Target("repro.serving.service:InferenceService.apply_verification",
           "verify.failed", kind="count", count_fn=_verdict_count("failed")),
    Target("repro.serving.service:InferenceService.apply_verification",
           "verify.skipped", kind="count", count_fn=_verdict_count("skipped")),
    Target("repro.mpisim.runtime:MPIRuntime.run_source", "mpisim.run"),
    Target("repro.mpisim.runtime:MPIRuntime.run_source", "mpisim.runs",
           kind="count"),
    Target("repro.mpisim.runtime:MPIRuntime.run_source", "mpisim.threads_alive",
           kind="value", value_fn=_leaked_threads),
    # training
    Target("repro.model.trainer:Trainer.train_step", "trainer.step", unit=True),
    Target("repro.model.transformer:Seq2SeqTransformer.forward",
           "trainer.forward", kind="leaf", only_under=("trainer.step",)),
    Target("repro.model.loss:cross_entropy", "trainer.loss", kind="leaf",
           only_under=("trainer.step",)),
    Target("repro.model.autograd:Tensor.backward", "trainer.backward",
           kind="leaf", only_under=("trainer.step",)),
    Target("repro.model.optimizer:Adam.step", "trainer.optimizer",
           only_under=("trainer.step",)),
    Target("repro.model.optimizer:Adam.clip_gradients", "trainer.optimizer",
           only_under=("trainer.step",)),
    Target("repro.model.optimizer:Adam.zero_grad", "trainer.optimizer",
           only_under=("trainer.step",)),
    # set-up (server processes; train-steps records these itself)
    Target("repro.mpirical.pipeline:MPIRical.load", "setup.load", kind="value",
           value_fn=lambda args, kwargs, result, seconds: seconds),
]


# ---------------------------------------------------------------- metrics

def _ms(name):
    return lambda snap: median_ms(snap["samples"].get(name, []))


def _count(name):
    return lambda snap: float(snap["counts"].get(name, 0))


def _ratio(numerator, denominator):
    def compute(snap):
        den = snap["counts"].get(denominator, 0)
        return snap["counts"].get(numerator, 0) / den if den else 0.0
    return compute


def _values(name, how):
    def compute(snap):
        items = snap["values"].get(name, [])
        return float(how(items)) if items else 0.0
    return compute


#: (metric, unit, compute(snapshot) -> float), in report order.
LAYER_METRICS: list[tuple[str, str, object]] = [
    ("router.self_ms", "ms", _ms("router.self")),
    ("router.affinity_key_ms", "ms", _ms("router.affinity_key")),
    ("router.upstream_wait_ms", "ms", _ms("router.upstream_wait")),
    ("router.retries", "count", _count("router.retries")),
    ("server.self_ms", "ms", _ms("server.self")),
    ("server.wait_ms", "ms", _ms("server.wait")),
    ("api.parse_ms", "ms", _ms("api.parse")),
    ("api.render_ms", "ms", _ms("api.render")),
    ("clang.parse_ms", "ms", _ms("clang.parse")),
    ("xsbt.build_ms", "ms", _ms("xsbt.build")),
    ("tokenization.lex_ms", "ms", _ms("tokenization.lex")),
    ("cache.key_ms", "ms", _ms("cache.key")),
    ("cache.hit_share", "share", _ratio("cache.hits", "cache.gets")),
    ("service.anchor_ms", "ms", _ms("service.anchor")),
    ("mpirical.package_ms", "ms", _ms("mpirical.package")),
    ("sched.queue_wait_ms", "ms", _values("sched.queue_wait_ms", statistics.median)),
    ("sched.occupancy_mean", "rows", _values("sched.occupancy", statistics.fmean)),
    ("sched.step_ms", "ms", _ms("sched.step")),
    ("sched.joins", "count", _count("sched.joins")),
    ("sched.retires", "count", _count("sched.retires")),
    ("sched.static_fallbacks", "count", _count("sched.static_fallbacks")),
    ("model.encode_ms", "ms", _ms("model.encode")),
    ("model.decode_step_ms", "ms", _ms("model.decode_step")),
    ("model.embed_ms", "ms", _ms("model.embed")),
    ("model.self_attn_ms", "ms", _ms("model.self_attn")),
    ("model.cross_attn_ms", "ms", _ms("model.cross_attn")),
    ("model.ffn_ms", "ms", _ms("model.ffn")),
    ("model.norm_ms", "ms", _ms("model.norm")),
    ("model.out_proj_ms", "ms", _ms("model.out_proj")),
    ("model.advance_greedy_ms", "ms", _ms("model.advance_greedy")),
    ("model.advance_sample_ms", "ms", _ms("model.advance_sample")),
    ("model.advance_beam_ms", "ms", _ms("model.advance_beam")),
    ("model.kv_append_ms", "ms", _ms("model.kv_append")),
    ("model.kv_reorder_ms", "ms", _ms("model.kv_reorder")),
    ("model.kv_insert_ms", "ms", _ms("model.kv_insert")),
    ("model.kv_retire_ms", "ms", _ms("model.kv_retire")),
    ("model.tokens", "count", _count("model.tokens")),
    ("jobs.wal_append_ms", "ms", _ms("jobs.wal_append")),
    ("jobs.wal_syncs", "count", _count("jobs.wal_syncs")),
    ("jobs.queue_wait_ms", "ms", _values("jobs.queue_wait_ms", statistics.median)),
    ("verify.reference_ms", "ms", _ms("verify.reference")),
    ("verify.candidate_ms", "ms", _ms("verify.candidate")),
    ("verify.nbest_decode_ms", "ms", _ms("verify.nbest_decode")),
    ("verify.over_budget_share", "share",
     _values("verify.over_budget", statistics.fmean)),
    ("verify.verified", "count", _count("verify.verified")),
    ("verify.failed", "count", _count("verify.failed")),
    ("verify.skipped", "count", _count("verify.skipped")),
    ("mpisim.run_ms", "ms", _ms("mpisim.run")),
    ("mpisim.runs", "count", _count("mpisim.runs")),
    ("mpisim.threads_leaked", "count", _values("mpisim.threads_alive", max)),
    ("trainer.forward_ms", "ms", _ms("trainer.forward")),
    ("trainer.backward_ms", "ms", _ms("trainer.backward")),
    ("trainer.optimizer_ms", "ms", _ms("trainer.optimizer")),
    ("setup.import_s", "s", _values("setup.import", statistics.median)),
    ("setup.load_s", "s", _values("setup.load", statistics.median)),
    ("setup.warmup_s", "s", _values("setup.warmup", statistics.median)),
]


def layer_metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric (name -> (value, unit)) from a merged trace."""
    out = {name: (float(compute(snapshot)), unit)
           for name, unit, compute in LAYER_METRICS}
    out["trace.missing_targets"] = (float(len(snapshot.get("missing", []))),
                                    "count")
    return out
