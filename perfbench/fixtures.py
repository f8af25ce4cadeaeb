"""Build the benchmark's committed fixtures (run once; the results are committed).

``checkpoint``: the served model, the quick-profile model of
``benchmarks/conftest.py`` -- 70 synthetic repositories (corpus seed 11),
d_model 64, two encoder and two decoder layers, 8 epochs.  Training takes about
three minutes on two CPU cores.  It is committed under ``perfbench/checkpoint``
so a later change to the training code cannot change the model the benchmark
serves.

``train-reference``: the fp64 losses of the ``train-steps`` workload (its
optimizer steps from the seeded init, then the validation loss), written to
``perfbench/train_reference.json``.  A later change must reproduce them.

    PYTHONPATH=src python3 perfbench/fixtures.py checkpoint
    PYTHONPATH=src python3 perfbench/fixtures.py train-reference
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import drivers  # noqa: E402
from workloads import build_bench_dataset, quick_experiment_config  # noqa: E402


def checkpoint() -> None:
    from repro.mpirical import MPIRical

    dataset = build_bench_dataset()
    model = MPIRical.fit(dataset.splits.train, dataset.splits.validation,
                         quick_experiment_config(), verbose=True)
    path = model.save(HERE / "checkpoint")
    print(f"saved {path} revision {model.fingerprint()}")


def train_reference() -> None:
    config, encoder, train, validation, _fresh, trainer = drivers._train_setup()
    size = config.training.batch_size
    losses = [trainer.train_step(train[i:i + size])[0]
              for i in range(0, drivers.TRAIN_STEPS * size, size)]
    validation_loss, _ = trainer.evaluate(validation)
    payload = {"steps": drivers.TRAIN_STEPS, "batch_size": size,
               "losses": losses, "validation_loss": validation_loss}
    drivers.REFERENCE.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    actions = {"checkpoint": checkpoint, "train-reference": train_reference}
    if len(sys.argv) != 2 or sys.argv[1] not in actions:
        raise SystemExit(f"usage: fixtures.py {{{'|'.join(actions)}}}")
    actions[sys.argv[1]]()
