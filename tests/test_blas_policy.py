"""The one-BLAS-thread policy (:mod:`repro.utils.blas`).

OpenBLAS's thread count is process-global, so every case runs in a fresh
interpreter.  Each child first sets its own count to 2 (a caller's
setting, whatever the host's default), then checks what the policy does to
it: the trainer and the server CLI run on one thread and hand the caller's
count back, a count or a training step beyond what the policy was measured
on is left alone, and an operator's ``OPENBLAS_NUM_THREADS`` wins.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.utils.blas import OVERRIDE_ENV

SRC = Path(__file__).resolve().parents[1] / "src"


def _numpy_blas() -> str:
    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _numpy_blas(),
    reason="the policy acts on an OpenBLAS found through /proc/self/maps")


def run_child(body: str, **env: str) -> None:
    """Run ``body`` in a fresh interpreter inside a caller scope of 2
    threads, with no override variable set unless given in ``env``."""
    script = ("from repro.utils.blas import blas_policy, blas_thread_count, "
              "blas_threads\n"
              "with blas_threads(2):\n"
              + textwrap.indent(textwrap.dedent(body), "    "))
    child_env = {name: value for name, value in os.environ.items()
                 if name not in OVERRIDE_ENV}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", script], env=child_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_scope_sets_one_and_restores_nested():
    run_child("""
        assert blas_thread_count() == 2
        with blas_threads(1):
            assert blas_thread_count() == 1
            with blas_threads(1):
                assert blas_thread_count() == 1
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2
        with blas_threads(3):
            with blas_threads(1):
                assert blas_thread_count() == 1
            assert blas_thread_count() == 3
        assert blas_thread_count() == 2
    """)


def test_operator_override_is_left_alone():
    run_child("""
        assert blas_thread_count() == 2
        with blas_threads(1):
            assert blas_thread_count() == 2
        with blas_policy():
            assert blas_thread_count() == 2
        assert blas_thread_count() == 2
    """, OPENBLAS_NUM_THREADS="2")


def test_policy_acts_only_within_what_was_measured():
    run_child("""
        from repro.utils.blas import MEASURED_BATCH_WIDTH
        with blas_policy(MEASURED_BATCH_WIDTH):
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2
        with blas_policy(MEASURED_BATCH_WIDTH + 1):
            assert blas_thread_count() == 2
        with blas_threads(3), blas_policy():
            assert blas_thread_count() == 3
        assert blas_thread_count() == 2
    """)


def test_train_step_runs_on_one_thread_and_restores():
    run_child("""
        from repro.model.config import ModelConfig, TrainingConfig
        from repro.model.optimizer import Adam
        from repro.model.trainer import Trainer
        from repro.model.transformer import Seq2SeqTransformer
        from repro.tokenization.code_tokenizer import EncodedExample

        seen = []
        step = Adam.step
        def probe(self):
            seen.append(blas_thread_count())
            return step(self)
        Adam.step = probe

        def trainer(batch_size):
            model = Seq2SeqTransformer(ModelConfig(
                vocab_size=20, d_model=16, num_heads=2, num_encoder_layers=1,
                num_decoder_layers=1, ffn_dim=24, dropout=0.0, seed=3))
            return Trainer(model, pad_id=0,
                           config=TrainingConfig(batch_size=batch_size))

        batch = [EncodedExample(example_id=str(i), encoder_ids=[5, 6, 7 + i],
                                decoder_ids=[1, 5, 6, 2]) for i in range(2)]
        small = trainer(2)
        small.train_step(batch)
        assert seen == [1], seen
        assert blas_thread_count() == 2
        small.evaluate(batch)
        assert blas_thread_count() == 2
        with blas_threads(3):
            small.train_step(batch)
        # Wider than paper_config's 32 x 128: left on the caller's count.
        trainer(257).train_step(batch)
        assert seen == [1, 3, 2], seen
        assert blas_thread_count() == 2
    """)


def test_server_cli_enters_the_scope():
    # The server's first heavy step is replaced by a probe that exits, so no
    # model trains and no port is bound.  Router workers run this same main.
    run_child("""
        import repro.serving.server as cli

        seen = []
        def probe(*args, **kwargs):
            seen.append(blas_thread_count())
            raise SystemExit(0)
        cli._demo_service = probe
        try:
            cli.main(["--port", "0"])
        except SystemExit:
            pass
        assert seen == [1], seen
        assert blas_thread_count() == 2
    """)
