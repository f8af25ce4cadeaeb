"""repro — a reproduction of *MPI-RICAL: Data-Driven MPI Distributed Parallelism
Assistance with Transformers* (SC 2023).

Top-level layout
----------------
``repro.clang``         C front-end (lexer, parser, AST, code generator)
``repro.xsbt``          SBT / X-SBT AST linearisation
``repro.mpiknow``       MPI function registry and call signatures
``repro.corpus``        MPICodeCorpus synthesis (simulated GitHub mining) + statistics
``repro.dataset``       dataset pipeline (filters, MPI-call removal, splits)
``repro.tokenization``  vocabulary and example encoding
``repro.model``         NumPy Transformer (autograd, trainer, decoding strategies)
``repro.api``           versioned advising contract (AdviseRequest/Response, ApiError)
``repro.mpirical``      the MPI-RICAL pipeline, assistant API and rule baseline
``repro.registry``      model lifecycle (versioned registry, aliases, hot-swap)
``repro.serving``       batched inference service (continuous batching, LRU cache,
                        batch jobs, HTTP)
``repro.evaluation``    Table II / Table III metrics (F1, BLEU, METEOR, ROUGE-L, ACC)
``repro.mpisim``        simulated MPI runtime + C interpreter (program validation)
``repro.benchprograms`` the 11 numerical benchmark programs

Quick start
-----------
>>> from repro.corpus import default_corpus
>>> from repro.dataset import build_dataset
>>> from repro.mpirical import MPIRical
>>> corpus = default_corpus(num_repositories=60)
>>> dataset = build_dataset(corpus)
>>> model = MPIRical.fit(dataset.splits.train, dataset.splits.validation)
>>> print(model.evaluate(dataset.splits.test, limit=20).to_table())
"""

__version__ = "1.0.0"

__all__ = [
    "clang",
    "xsbt",
    "mpiknow",
    "corpus",
    "dataset",
    "tokenization",
    "model",
    "api",
    "mpirical",
    "registry",
    "serving",
    "evaluation",
    "mpisim",
    "benchprograms",
    "utils",
]
