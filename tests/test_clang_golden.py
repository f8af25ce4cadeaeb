"""Golden token streams and cache keys for the C front end.

``tests/golden/clang_streams.json`` maps each program to two digests: the
lexer's full ``(kind, text, line, column)`` stream (comments, newlines,
directives, error tokens and EOF included) and the program's greedy
:func:`repro.serving.cache.canonical_cache_key`.  Each digest is the first
16 hex digits of a sha256.  The programs:

* the quick-profile corpus (70 repositories, seed 11): every mined file as
  extracted, every standardised corpus program, and every MPI-stripped
  dataset source;
* layout edits of 24 of those sources (comments, blank lines, tabs, CRLF),
  the shape of an editor buffer the serving cache must still hit on;
* every :mod:`repro.benchprograms` program;
* the serial and parallel sources of ``fuzz_corpus(7, 25)``;
* 2000 seeded random strings over a C-ish alphabet (one digest for all).

The digests pin the front end's observable behaviour: a lexer change that
moves one token, one position or one cache key fails here.  Regenerate only
for an intended change of the stream:

    PYTHONPATH=src python tests/test_clang_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "clang_streams.json"

_ALPHABET = ("abexX01959._ \t\n\r\f\\\"'/*#+-<>=!&|^~%?:;,(){}[]@$"
             + "é")
_MARKERS = ("TODO", "edit", "note */ x", "keep \"quoted\"")


def _layout_edit(code: str, rng: random.Random) -> str:
    """Re-indent, add blank lines and comments, and end some lines with CRLF;
    directive lines and their continuations are left as they are."""
    out: list[str] = [f"/* revision {rng.randrange(10 ** 6)} */"]
    for line in code.split("\n"):
        if line.lstrip().startswith("#") or line.rstrip().endswith("\\"):
            out.append(line)
            continue
        indent = rng.choice(("", "\t", "  ", " \t"))
        out.append(indent + line.lstrip(" ") + rng.choice(("", "", "\r", " ")))
        roll = rng.random()
        if roll < 0.15:
            out.append("")
        elif roll < 0.3:
            out.append(f"// {rng.choice(_MARKERS)}")
        elif roll < 0.35:
            out.append(f"/* {rng.choice(_MARKERS)}\n   spans lines */")
    return "\n".join(out)


def _random_sources(count: int = 2000, seed: int = 5) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(60)))
            for _ in range(count)]


def golden_programs() -> dict[str, str]:
    """Every named program the goldens cover, in a stable order."""
    from repro.benchprograms import BENCHMARK_PROGRAMS
    from repro.corpus import MiningConfig, build_corpus
    from repro.corpus.mining import generate_repositories, mine_c_programs
    from repro.dataset import FilterConfig, build_dataset
    from repro.verify.fuzz import fuzz_corpus

    config = MiningConfig(num_repositories=70, seed=11)
    programs: dict[str, str] = {}
    for index, source in enumerate(mine_c_programs(generate_repositories(config))):
        programs[f"mined/{index}:{source.path}"] = source.text
    corpus = build_corpus(config)
    for program in corpus.programs:
        programs[f"corpus/{program.program_id}"] = program.code
    examples = build_dataset(corpus, FilterConfig(max_tokens=240)).examples
    for example in examples:
        programs[f"dataset/{example.example_id}"] = example.source_code
    rng = random.Random(22)
    for index in range(24):
        source = examples[index * len(examples) // 24].source_code
        programs[f"edit/{index}"] = _layout_edit(source, rng)
    for program in BENCHMARK_PROGRAMS:
        programs[f"bench/{program.name}"] = program.source
    for case in fuzz_corpus(7, 25):
        programs[f"fuzz/{case.name}/serial"] = case.serial_source
        programs[f"fuzz/{case.name}/parallel"] = case.parallel_source
    return programs


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def stream_digest(source: str) -> str:
    from repro.clang.lexer import tokenize

    return _digest(json.dumps([[t.kind.value, t.text, t.line, t.column]
                               for t in tokenize(source)]))


def key_digest(source: str) -> str:
    from repro.serving.cache import canonical_cache_key

    return canonical_cache_key(source)[:16]


def compute_goldens() -> dict:
    programs = {name: [stream_digest(source), key_digest(source)]
                for name, source in golden_programs().items()}
    randoms = _random_sources()
    return {
        "programs": programs,
        "random": [_digest("".join(stream_digest(s) for s in randoms)),
                   _digest("".join(key_digest(s) for s in randoms))],
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute_goldens()


def test_every_golden_program_is_still_generated(goldens, computed):
    assert sorted(computed["programs"]) == sorted(goldens["programs"])


def test_token_streams_match_goldens(goldens, computed):
    moved = [name for name, (stream, _) in computed["programs"].items()
             if goldens["programs"].get(name, [None])[0] != stream]
    assert moved == []
    assert computed["random"][0] == goldens["random"][0]


def test_cache_keys_match_goldens(goldens, computed):
    moved = [name for name, (_, key) in computed["programs"].items()
             if goldens["programs"].get(name, [None, None])[1] != key]
    assert moved == []
    assert computed["random"][1] == goldens["random"][1]


if __name__ == "__main__":
    fresh = compute_goldens()
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(digests)}"
                      for name, digests in sorted(fresh["programs"].items()))
    GOLDEN.write_text('{"programs": {\n' + rows + "\n},\n"
                      f'"random": {json.dumps(fresh["random"])}}}\n')
    print(f"wrote {len(fresh['programs'])} programs to {GOLDEN}")
