"""Seeded inputs for every perfbench workload.

Everything the benchmark sends to the program is built here from the
workload seed, so the same seed always gives the same requests.  The served
model is fixed (``perfbench/checkpoint``); only the inputs vary with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus import MiningConfig, build_corpus
from repro.dataset import FilterConfig, build_dataset
from repro.model.config import ExperimentConfig, ModelConfig, TrainingConfig

#: The quick profile of ``benchmarks/conftest.py``.
CORPUS_REPOSITORIES = 70
CORPUS_SEED = 11
MAX_TOKENS = 240

GREEDY = {"name": "greedy"}
BEAM4 = {"name": "beam", "beam_size": 4}


def quick_experiment_config() -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(d_model=64, num_heads=4, num_encoder_layers=2,
                          num_decoder_layers=2, ffn_dim=128, dropout=0.1),
        training=TrainingConfig(batch_size=8, epochs=8, learning_rate=2.5e-3,
                                warmup_steps=20, label_smoothing=0.05, seed=7),
        max_source_tokens=260,
        max_xsbt_tokens=80,
        max_target_tokens=300,
    )


def build_bench_dataset(num_repositories: int = CORPUS_REPOSITORIES,
                        seed: int = CORPUS_SEED):
    corpus = build_corpus(MiningConfig(num_repositories=num_repositories, seed=seed))
    return build_dataset(corpus, FilterConfig(max_tokens=MAX_TOKENS))


def corpus_programs(seed: int, num_repositories: int = CORPUS_REPOSITORIES) -> list[str]:
    """Distinct MPI-stripped serial programs of the corpus synthesised from
    ``seed``, shortest first.  Programs are deduplicated on their token
    stream, which the serving cache key contains, so every one is a miss."""
    from repro.tokenization.code_tokenizer import tokenize_code

    dataset = build_bench_dataset(num_repositories, seed)
    seen: set[tuple[str, ...]] = set()
    programs: list[str] = []
    for example in dataset.examples:
        key = tuple(tokenize_code(example.source_code))
        if key in seen:
            continue
        seen.add(key)
        programs.append(example.source_code)
    return sorted(programs, key=lambda code: (len(code), code))


# ---------------------------------------------------------------- requests


@dataclass(frozen=True)
class Request:
    """One v1 advise request (the wire body) and what it is for."""

    code: str
    strategy: dict
    verify: bool = False

    def body(self) -> dict:
        body = {"code": self.code, "strategy": dict(self.strategy)}
        if self.verify:
            body["verify"] = True
        return body


# ------------------------------------------------------------- edit replay

_MARKERS = ("TODO", "edit", "note", "check", "keep", "hot path")


def layout_edit(code: str, rng: random.Random, serial: int) -> str:
    """A layout-only edit of ``code``: re-indentation, blank lines, comments.

    The token stream and the syntax tree are unchanged, so the serving cache
    key is too.  Preprocessor lines and macro continuations are left alone.
    ``serial`` is written into one comment so every edit is a unique body.
    """
    lines = code.split("\n")
    out: list[str] = []
    step = rng.choice(("  ", "    ", "\t", "   "))
    for index, line in enumerate(lines):
        stripped = line.lstrip(" \t")
        continued = index > 0 and lines[index - 1].rstrip().endswith("\\")
        if stripped and not stripped.startswith("#") and not continued:
            line = step * ((len(line) - len(stripped) + 1) // 2) + stripped
        out.append(line)
        if line.rstrip().endswith("\\") or line.lstrip().startswith("#"):
            continue
        roll = rng.random()
        if roll < 0.12:
            out.append("")
        elif roll < 0.2:
            out.append(f"// {rng.choice(_MARKERS)} {rng.randrange(1000)}")
    out.insert(0, f"/* revision {serial} */")
    return "\n".join(out)


def edit_replay(seed: int, programs: int = 24) -> list[str]:
    """The fixed program set that edit-replay warms the cache with: evenly
    spaced by length over the seed's corpus."""
    ranked = corpus_programs(seed)
    return [ranked[int((index + 0.5) * len(ranked) / programs)]
            for index in range(programs)]


# ----------------------------------------------------------- verify advise


#: One verify-advise episode: (program source, strategy) per request.  A
#: beam-4 request (four candidates) on a fuzz program in a clean process,
#: then the second and third corpus test programs, greedy: their serial
#: references never finish under simulation (runaway ranks), so each costs
#: the budget plus the join's grace and leaves a thread behind.  (A beam-4
#: request after a leak takes about 26 s, which a 10 s run cannot afford.)
VERIFY_EPISODE = (("fuzz", BEAM4), ("corpus", GREEDY), ("corpus", GREEDY))


def verify_advise(seed: int) -> list[Request]:
    """One episode of verified requests: a serial program of the seeded fuzz
    generator, then the quick-profile corpus's serial test programs in order
    from the second (the paper's MPI-stripped inputs).

    The episode is the same for every workload seed: runaway simulated ranks
    leak threads that slow every later request in the process, so only a
    fixed order makes that timeline repeat from run to run.
    """
    from repro.verify.fuzz import fuzz_corpus

    del seed  # the order must not vary; see above
    corpus = iter(example.source_code
                  for example in build_bench_dataset().splits.test[1:])
    fuzz = iter(case.serial_source
                for case in fuzz_corpus(CORPUS_SEED, len(VERIFY_EPISODE)))
    return [Request(next(corpus if source == "corpus" else fuzz), strategy,
                    verify=True)
            for source, strategy in VERIFY_EPISODE]
