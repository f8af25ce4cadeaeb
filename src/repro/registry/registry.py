"""Named, versioned model entries with aliases, hot-swap and leases.

The serving stack used to be hard-wired to exactly one in-process model
constructed before the server started.  :class:`ModelRegistry` replaces that
with a lifecycle:

* **register** a model under a *name*, backed either by a checkpoint
  directory (:mod:`repro.model.checkpoints` — loaded lazily on first use) or
  by an already-constructed in-memory pipeline;
* every registered model carries a content-hash **revision**
  (:func:`repro.model.checkpoints.model_fingerprint`, recorded in the
  checkpoint manifest at save time), so ``name@revision`` is a stable
  identity: two registrations of byte-identical weights share it, a retrained
  checkpoint gets a new one — which is exactly what the serving cache keys on
  to never serve a stale entry across a hot-swap;
* **aliases** point at names; the ``default`` alias is what requests that
  don't pin a model resolve to.  :meth:`ModelRegistry.swap` flips an alias
  atomically: requests that resolved before the flip keep their **lease** on
  the old entry and finish on it (drained, never dropped), requests arriving
  after the flip resolve to the new entry;
* **unload** is ref-counted through those leases: an entry with in-flight
  requests drains first and releases its weights only when the last lease is
  returned.  In-memory entries (no checkpoint to reload from) refuse to
  unload.

Resolution accepts an alias, a bare name, or a fully-pinned
``name@revision`` (a canary client can insist on the exact version it was
validated against; a stale pin fails fast instead of silently serving the
new weights).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..model.checkpoints import read_manifest

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from ..mpirical.assistant import MPIAssistant
    from ..mpirical.pipeline import MPIRical

#: The alias requests resolve through when they don't pin a model.
DEFAULT_ALIAS = "default"

#: The name an anonymous in-process model is registered under.
DEFAULT_MODEL_NAME = "default"

#: The tiny program a warm-up decode runs to prime the inference caches
#: (dtype-cast parameter copies, mask/memo caches) before traffic arrives.
WARMUP_SOURCE = "int main() { return 0; }\n"


class RegistryError(LookupError):
    """A model reference that cannot be resolved or an invalid transition.

    ``kind`` is machine-readable: ``"unknown"`` for names/aliases/revisions
    that don't resolve (the HTTP layer answers 422), ``"conflict"`` for
    invalid lifecycle transitions such as unloading an in-memory model (409).
    """

    def __init__(self, message: str, *, kind: str = "unknown") -> None:
        super().__init__(message)
        self.kind = kind


def split_model_spec(spec: str) -> tuple[str, str | None]:
    """Split ``"name"`` / ``"name@revision"`` into its parts."""
    name, sep, revision = spec.partition("@")
    return name, (revision if sep else None)


class ModelEntry:
    """One registered model: a source, a revision, and lifecycle state.

    Thread-safe; the entry lock serialises load/unload/lease transitions,
    while the (slow) checkpoint load itself runs outside it so concurrent
    resolvers of an already-loaded entry are never blocked behind a load.
    """

    def __init__(self, name: str, *, source: Path | None = None,
                 mpirical: "MPIRical | None" = None,
                 revision: str | None = None) -> None:
        if (source is None) == (mpirical is None):
            raise ValueError("a ModelEntry is backed by exactly one of a "
                             "checkpoint directory or an in-memory model")
        self.name = name
        self.source = source
        self._lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._mpirical = mpirical
        self._assistant: "MPIAssistant | None" = None
        self._revision = revision
        self._warmed = False
        self._leases = 0
        self._draining = False
        self.loaded_at: float | None = time.time() if mpirical else None

    # ---------------------------------------------------------------- state

    @property
    def loaded(self) -> bool:
        return self._mpirical is not None

    @property
    def revision(self) -> str | None:
        """Content-hash revision; known pre-load for manifest checkpoints."""
        return self._revision

    @property
    def identity(self) -> str:
        """The ``name@revision`` string cache keys and responses carry."""
        revision = self._revision or "unloaded"
        return f"{self.name}@{revision}"

    @property
    def leases(self) -> int:
        with self._lock:
            return self._leases

    # ------------------------------------------------------------ lifecycle

    def ensure_loaded(self, *, warm_up: bool = False) -> "MPIRical":
        """Load the entry's model if needed and return it.

        Loading a checkpoint verifies its manifest
        (:class:`repro.model.checkpoints.CheckpointError` on mismatch) and
        fixes the revision from content for pre-manifest checkpoints.
        ``warm_up`` runs one short greedy decode so the first real request
        doesn't pay for dtype-cast caches and memoised masks — once per
        load, not per call.
        """
        with self._load_lock:
            # Snapshot under the state lock: a concurrent unload() (which
            # takes only the state lock) must never turn this read into
            # None after the is-loaded check.  Returning the snapshotted
            # pipeline is safe — Python keeps it alive for this decode.
            with self._lock:
                mpirical = self._mpirical
            if mpirical is None:
                from ..mpirical.pipeline import MPIRical

                mpirical = MPIRical.load(self.source)
                # The load just verified content against the manifest
                # revision, so reuse it instead of re-hashing every
                # parameter; only pre-manifest checkpoints fingerprint here.
                manifest = read_manifest(self.source)
                revision = (manifest.revision if manifest is not None
                            else mpirical.fingerprint())
                with self._lock:
                    self._revision = revision
                    self._mpirical = mpirical
                    self._draining = False
                    self._warmed = False
                    self.loaded_at = time.time()
            if warm_up and not self._warmed:
                mpirical.predict_code(WARMUP_SOURCE, max_length=4)
                self._warmed = True
        return mpirical

    def assistant(self) -> "MPIAssistant":
        """The entry's advising facade (created on first use, identity-tagged)."""
        from ..mpirical.assistant import MPIAssistant

        mpirical = self.ensure_loaded()
        with self._lock:
            if self._assistant is None or self._assistant.mpirical is not mpirical:
                self._assistant = MPIAssistant(mpirical, identity=self.identity)
            return self._assistant

    def acquire(self) -> "ModelEntry":
        """Take a lease for one in-flight decode; pairs with :meth:`release`.

        A leased entry survives alias flips and deferred unloads: the decode
        it is serving always completes on the weights it started with.
        """
        with self._lock:
            if self._mpirical is None:
                raise RegistryError(
                    f"model {self.name!r} is not loaded", kind="conflict")
            self._leases += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._leases = max(0, self._leases - 1)
            if self._draining and self._leases == 0:
                self._unload_locked()

    def unload(self) -> bool:
        """Release the model's weights; returns True once actually unloaded.

        With leases outstanding the entry *drains*: it keeps serving its
        in-flight requests and unloads when the last lease is released
        (returning False now).  In-memory entries have no checkpoint to
        reload from, so unloading them would brick the name — refused with a
        ``conflict`` :class:`RegistryError`.
        """
        with self._lock:
            if self.source is None:
                raise RegistryError(
                    f"model {self.name!r} is in-memory (no checkpoint to "
                    f"reload from) and cannot be unloaded", kind="conflict")
            if self._mpirical is None:
                return True
            if self._leases > 0:
                self._draining = True
                return False
            self._unload_locked()
            return True

    def _unload_locked(self) -> None:
        self._mpirical = None
        self._assistant = None
        self._draining = False
        self._warmed = False
        self.loaded_at = None

    # ------------------------------------------------------------ reporting

    def info(self, served: Mapping[str, int] | None = None) -> dict[str, Any]:
        """The entry's state; ``requests_served`` is read from ``served``,
        the serving layer's per-``name@revision`` request count."""
        requests_served = (served or {}).get(self.identity, 0)
        with self._lock:
            return {
                "name": self.name,
                "revision": self._revision,
                "loaded": self._mpirical is not None,
                "source": str(self.source) if self.source else "in-memory",
                "leases": self._leases,
                "draining": self._draining,
                "requests_served": requests_served,
            }


class ModelRegistry:
    """The named-model catalogue behind the serving stack.

    >>> registry = ModelRegistry()
    >>> registry.register("pi-advisor", "checkpoints/v1", make_default=True)
    >>> entry = registry.resolve(None)            # the default alias
    >>> registry.register("pi-advisor-v2", "checkpoints/v2")
    >>> registry.swap("pi-advisor-v2")            # atomic alias flip
    """

    def __init__(self, model: "MPIRical | MPIAssistant | None" = None, *,
                 name: str = DEFAULT_MODEL_NAME, warm_up: bool = False,
                 root: "str | Path | None" = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}
        self._aliases: dict[str, str] = {}
        self.warm_up = warm_up
        #: Durable state directory: checkpoints live under it by convention
        #: and the serving job WAL (:mod:`repro.serving.joblog`) is written to
        #: ``<root>/jobs/``.  ``None`` keeps the registry fully in-memory —
        #: everything not backed by a checkpoint dies with the process.
        self.root = Path(root) if root is not None else None
        if model is not None:
            self.register(name, model, make_default=True)

    # ----------------------------------------------------------- registration

    def register(self, name: str,
                 source: "str | Path | MPIRical | MPIAssistant", *,
                 make_default: bool = False) -> ModelEntry:
        """Register (or re-register) ``name``.

        ``source`` is a checkpoint directory (loaded lazily; its manifest
        supplies the revision up front) or an in-memory
        :class:`~repro.mpirical.pipeline.MPIRical` /
        :class:`~repro.mpirical.assistant.MPIAssistant` (fingerprinted now).
        Re-registering an existing name replaces the entry atomically — a new
        checkpoint under the same name gets a new revision, and requests
        in-flight on the old entry finish on it through their leases.
        """
        from ..mpirical.assistant import MPIAssistant
        from ..mpirical.pipeline import MPIRical

        if not name or "@" in name or "/" in name:
            raise ValueError(f"invalid model name {name!r} "
                             "(must be non-empty, no '@' or '/')")
        if isinstance(source, MPIAssistant):
            source = source.mpirical
        if isinstance(source, MPIRical):
            entry = ModelEntry(name, mpirical=source,
                               revision=source.fingerprint())
        else:
            path = Path(source)
            if not path.is_dir():
                raise RegistryError(
                    f"checkpoint directory {path} does not exist")
            manifest = read_manifest(path)
            entry = ModelEntry(
                name, source=path,
                revision=manifest.revision if manifest else None)
        with self._lock:
            self._entries[name] = entry
            if make_default or DEFAULT_ALIAS not in self._aliases:
                self._aliases[DEFAULT_ALIAS] = name
        return entry

    def set_alias(self, alias: str, name: str) -> None:
        with self._lock:
            if name not in self._entries:
                raise RegistryError(f"unknown model {name!r}")
            self._aliases[alias] = name

    # ------------------------------------------------------------- resolution

    def get(self, name: str) -> ModelEntry:
        """The entry registered under ``name`` (no alias indirection)."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(f"unknown model {name!r}")
        return entry

    def resolve(self, spec: str | None) -> ModelEntry:
        """Resolve a request's model reference to a **loaded** entry.

        ``spec`` may be None (the ``default`` alias), an alias, a bare name,
        or ``name@revision`` — the pinned form additionally checks that the
        entry's current revision still matches, so a canary that validated
        against one version can never silently receive another.
        """
        spec = spec if spec is not None else DEFAULT_ALIAS
        name, revision = split_model_spec(spec)
        with self._lock:
            resolved = self._aliases.get(name, name)
            entry = self._entries.get(resolved)
        if entry is None:
            known = ", ".join(sorted(self.names())) or "none registered"
            raise RegistryError(
                f"unknown model {spec!r} (known models: {known})")
        entry.ensure_loaded(warm_up=self.warm_up)
        if revision is not None and revision != entry.revision:
            raise RegistryError(
                f"model {name!r} is at revision {entry.revision!r}, "
                f"not the requested {revision!r} — the pinned version was "
                f"replaced or never existed")
        return entry

    # -------------------------------------------------------------- lifecycle

    def load(self, name: str, *, warm_up: bool | None = None) -> ModelEntry:
        """Eagerly load (and optionally warm up) a registered model."""
        entry = self.get(name)
        entry.ensure_loaded(
            warm_up=self.warm_up if warm_up is None else warm_up)
        return entry

    def unload(self, name: str) -> bool:
        """Ref-counted unload; see :meth:`ModelEntry.unload`."""
        return self.get(name).unload()

    def swap(self, name: str, *, alias: str = DEFAULT_ALIAS) -> tuple[str, str]:
        """Atomically point ``alias`` at ``name``; returns old/new identities.

        The target is loaded *before* the flip (a swap must never route
        traffic onto a cold or broken checkpoint), and the flip itself is one
        dictionary store under the registry lock: every request resolving
        after it sees the new entry, every request that resolved before keeps
        its lease on the old one and completes there — drained, not dropped.
        """
        target = self.get(name)
        target.ensure_loaded(warm_up=self.warm_up)
        with self._lock:
            previous_name = self._aliases.get(alias)
            previous = self._entries.get(previous_name) if previous_name else None
            self._aliases[alias] = name
        return (previous.identity if previous is not None else "",
                target.identity)

    # -------------------------------------------------------------- reporting

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def aliases(self) -> dict[str, str]:
        with self._lock:
            return dict(self._aliases)

    def default_entry(self) -> ModelEntry | None:
        with self._lock:
            name = self._aliases.get(DEFAULT_ALIAS)
            return self._entries.get(name) if name else None

    def default_identity(self) -> str | None:
        entry = self.default_entry()
        return entry.identity if entry is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries or name in self._aliases

    def snapshot(self, served: Mapping[str, int] | None = None) -> dict[str, Any]:
        """Registry state for ``/healthz``, ``/metrics`` and ``/v1/models``;
        ``served`` is passed on to :meth:`ModelEntry.info`."""
        with self._lock:
            entries = list(self._entries.values())
            aliases = dict(self._aliases)
        default = aliases.get(DEFAULT_ALIAS)
        return {
            "default": next((e.identity for e in entries if e.name == default),
                            None),
            "aliases": aliases,
            "models": [entry.info(served) for entry in
                       sorted(entries, key=lambda e: e.name)],
            # Which durable-state replica this registry owns — in the pool
            # topology every worker has its own root under the shared pool
            # directory, and this is how an operator (or the router's
            # aggregated health view) tells the replicas apart.
            "root": str(self.root) if self.root is not None else None,
        }
