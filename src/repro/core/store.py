"""The planner's memory cache and the persistent plan store.

The :class:`~repro.api.planner.Planner` runs a staged pipeline (model ->
partition -> profile -> DAG -> frontier) and memoizes every stage on the
sub-key of the spec that determines it.  Those memo tables used to be
five ad-hoc dicts inside the planner; now they live in one of two caches:

* :class:`MemoryCache` -- the in-process tier (exactly the old dicts).
* :class:`PlanStore`  -- a content-addressed on-disk store layered over
  that memory tier, so partitions, profiles, per-stage frequency sweeps,
  taus and characterized frontiers persist *across processes*.  A sweep
  service (or a second figure-reproduction run) warm-starts from disk
  with zero re-profiling and zero re-characterization.

Store layout (one directory per persistent namespace)::

    <root>/store-format.json          layout version stamp
    <root>/partition/<sha256>.json    versioned core.serialization payloads
    <root>/profile/<sha256>.json
    <root>/stage_sweep/<sha256>.json
    <root>/tau/<sha256>.json
    <root>/frontier/<sha256>.json

Keys are *content hashes* of the planner's tuple keys
(:func:`stable_key`): every constituent -- the full model definition
(:class:`~repro.models.layers.ModelSpec` values, not just the name),
canonical GPU spec(s), partition/profiling parameters, dag shape, tau --
is canonicalized (dataclasses by type name + field values, floats by
their exact hex representation) and SHA-256 hashed.  Two processes, or
a v1 and a v2 spec payload, or a homogeneous per-stage GPU tuple and
the equivalent single name, therefore address bit-for-bit the same
entries.

Invalidation follows from the keys: a changed *input* (model-zoo
definition, GPU spec, any parameter) is a different file, never a stale
hit.  What keys cannot see is a change to the *algorithms themselves*:
edit the partitioner, profiler or optimizer code and previously
persisted artifacts still match their keys -- delete the store
directory after such upgrades (it is a pure cache).  Payloads carry
their own format versions (``core.serialization``), and each reader
accepts only the version this build writes; an unreadable, malformed
or older-version file is treated as a miss, recomputed and rewritten,
never an error.  Only a mismatched *layout* stamp raises,
since silently mixing layouts could alias keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterable, Optional, Union

try:  # POSIX advisory locks guard gc against concurrent writers
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no-op locks)
    fcntl = None

from ..exceptions import ReproError
from .serialization import payload_from_dict, payload_to_dict

#: Sentinel returned by :meth:`MemoryCache.get` on a miss (``None`` is a
#: legitimate cached value, e.g. an unresolved optional field).
MISS = object()

#: On-disk layout version (bump only if the directory structure or the
#: key construction changes incompatibly).
STORE_LAYOUT_VERSION = 1

#: Namespaces :class:`PlanStore` persists to disk; everything else
#: (models, DAGs, optimizers, simulated baselines) is cheap to rebuild
#: or not meaningfully serializable and stays memory-only.
PERSISTENT_NAMESPACES = ("partition", "profile", "stage_sweep", "tau",
                         "frontier")

#: Set to ``"0"`` to skip the fsync-before-rename in
#: :meth:`PlanStore._atomic_write` (defaults to on): faster for
#: throwaway test stores, at the cost of crash durability.
FSYNC_ENV = "REPRO_STORE_FSYNC"


class StoreError(ReproError):
    """The on-disk plan store is unusable (layout mismatch, bad root)."""


# ---------------------------------------------------------------------------
# Stable content hashing
# ---------------------------------------------------------------------------


#: Per dataclass type: ``('"name":', name)`` per field in sorted name
#: order, and whether it is frozen (only frozen instances are memoized).
_FIELDS: Dict[type, tuple] = {}

#: ``id(instance) -> (instance, key text)`` for frozen dataclasses
#: hashed at the top level of a key (a plan hashes its ``ModelSpec`` in
#: most of its keys).  Holding the instance keeps its id from being
#: reused while the entry lives; the table is cleared when it reaches
#: :data:`_MEMO_SIZE`.  Threads share it unlocked: a lost entry only
#: costs a recompute, and every entry stored is correct.
_MEMO: Dict[int, tuple] = {}
_MEMO_SIZE = 256


def _dataclass_fields(cls: type):
    """``(fields, frozen)`` of a dataclass type, else ``None`` (cached)."""
    try:
        return _FIELDS[cls]
    except KeyError:
        pass
    if dataclasses.is_dataclass(cls):
        names = sorted(f.name for f in dataclasses.fields(cls))
        entry = (tuple((_quote(name) + ":", name) for name in names),
                 cls.__dataclass_params__.frozen)
    else:
        entry = None
    _FIELDS[cls] = entry
    return entry


def _fields_text(value, fields: tuple, seen: Dict[int, str]) -> str:
    return "{" + ",".join([label + _key_text(getattr(value, name), seen)
                           for label, name in fields]) + "}"


def _key_text(value, seen: Optional[Dict[int, str]] = None) -> str:
    """Canonical JSON text of one planner cache-key constituent.

    The text is what ``json.dumps(form, sort_keys=True,
    separators=(",", ":"))`` writes for the constituent's canonical
    form, built in one pass.  Dataclasses (``GPUSpec``,
    ``WorkProfile``, ...) canonicalize by type name plus *field
    values*, ``[name, {field: value}]``, so a derated custom A100 never
    collides with the registry spec sharing its name; a dataclass
    nested inside another one contributes its field object alone, the
    shape ``dataclasses.asdict`` gives.  Frozen dataclasses are values:
    a top-level one's text is memoized by identity in :data:`_MEMO`,
    and a nested one's in ``seen``, which lives for one top-level value
    (a model's blocks share one ``WorkProfile``).  Floats
    are the string of ``float.hex`` -- exact, locale-free,
    round-trippable; dict keys are ``str`` of the key.
    """
    if value is None:
        return "null"
    if isinstance(value, str):
        return _quote(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return '"' + value.hex() + '"'
    dataclass = _dataclass_fields(type(value))
    if dataclass is not None:
        fields, frozen = dataclass
        if seen is not None:
            text = seen.get(id(value)) if frozen else None
            if text is None:
                text = _fields_text(value, fields, seen)
                if frozen:
                    seen[id(value)] = text
            return text
        hit = _MEMO.get(id(value))
        if hit is not None:
            return hit[1]
        text = ("[" + _quote(type(value).__name__) + ","
                + _fields_text(value, fields, {}) + "]")
        if frozen:
            if len(_MEMO) >= _MEMO_SIZE:
                _MEMO.clear()
            _MEMO[id(value)] = (value, text)
        return text
    if isinstance(value, (tuple, list)):
        return "[" + ",".join([_key_text(v, seen) for v in value]) + "]"
    if isinstance(value, dict):
        # str() keys, later keys winning a clash, written in key order.
        table = {str(k): v for k, v in sorted(value.items())}
        return "{" + ",".join([_quote(k) + ":" + _key_text(v, seen)
                               for k, v in sorted(table.items())]) + "}"
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a "
                    f"store key")


def stable_key(key) -> str:
    """SHA-256 content hash of a planner cache key (hex digest).

    Stable across processes and Python versions: the same logical inputs
    always hash to the same address, which is what lets a second process
    reuse a first process's partitions, profiles and frontiers
    bit-for-bit.
    """
    return hashlib.sha256(_key_text(key).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


#: Name of the advisory lock file coordinating writers and ``gc`` across
#: processes sharing one store root.
STORE_LOCK_NAME = ".store.lock"


@contextmanager
def store_lock(root: str, exclusive: bool):
    """Cross-process reader/writer lock over one store root.

    Writers (``PlanStore.put``) hold it *shared*, so any number of
    processes can persist entries concurrently; ``gc`` holds it
    *exclusive*, so an eviction scan can never interleave with a write
    and unlink a file whose ``os.replace`` is still in flight (or race
    a second gc over the same mtime ordering).  Implemented with
    ``flock`` -- advisory, blocking, and released automatically if the
    holder dies.  On platforms without ``fcntl`` the lock degrades to a
    no-op (single-process behavior, exactly the pre-lock semantics).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    path = os.path.join(root, STORE_LOCK_NAME)
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


class MemoryCache:
    """Namespace -> key -> value storage behind the planner's memo tables:
    the in-process tier, plain dicts.

    Keys are the planner's tuple keys (hashable, content-determined);
    values are stage artifacts.  ``get`` returns :data:`MISS` on a miss
    so ``None`` stays a valid value.  ``counters`` tallies hits/misses
    (and, for :class:`PlanStore`, disk traffic) for §6.5-style overhead
    accounting and the CI persistence guard.

    Mutations take a small lock so a background characterization (e.g.
    a non-blocking server registration) can insert entries while
    another thread plans; lock-free reads stay safe under the GIL.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {"hits": 0, "misses": 0}
        #: key -> ``stable_key(key)``: store paths and provenance digests
        #: read this one memo, so each key is hashed once per cache.
        self._hashes: Dict[Any, str] = {}
        self._tables: Dict[str, Dict[Any, Any]] = {}
        self._mutex = threading.Lock()

    def digest(self, key) -> str:
        """``stable_key(key)``, computed once per key for this cache."""
        digest = self._hashes.get(key)
        if digest is None:
            digest = self._hashes[key] = stable_key(key)
        return digest

    def _table(self, namespace: str) -> Dict[Any, Any]:
        return self._tables.setdefault(namespace, {})

    def get(self, namespace: str, key) -> Any:
        table = self._table(namespace)
        if key in table:
            self.counters["hits"] += 1
            return table[key]
        self.counters["misses"] += 1
        return MISS

    def get_with_source(self, namespace: str, key):
        """``(value, source)`` where source is provenance-grade.

        ``source`` is ``"miss"``, ``"memory"`` or (for :class:`PlanStore`)
        ``"disk"`` -- the fact :mod:`repro.obs.provenance` records per
        stage.
        """
        value = self.get(namespace, key)
        return value, ("miss" if value is MISS else "memory")

    def put(self, namespace: str, key, value) -> None:
        with self._mutex:
            self._table(namespace)[key] = value

    def clear(self) -> None:
        with self._mutex:
            self._tables.clear()
            self._hashes.clear()


class PlanStore(MemoryCache):
    """Content-addressed persistent plan store (disk under a memory tier).

    ``get`` consults the memory tier first (same-process object reuse
    keeps identity semantics), then disk for the
    :data:`PERSISTENT_NAMESPACES`; a disk hit is deserialized once and
    promoted to memory.  ``put`` writes through to disk atomically
    (temp file + ``os.replace``), skipping files that already exist --
    content addressing makes rewrites pointless -- so concurrent sweep
    workers sharing one root never corrupt each other.

    ``max_bytes`` caps the on-disk footprint: when a write pushes the
    store past the cap, the least-recently-used entries (by file mtime;
    disk hits refresh it) are pruned until the store fits again.  The
    cap is per-store-object -- sweep worker processes open the store
    without one, so only the owning store garbage collects.  :meth:`gc`
    runs the same pruning on demand (the ``repro cache gc``
    subcommand).
    """

    def __init__(self, root: os.PathLike,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__()
        self.root = os.fspath(root)
        if max_bytes is not None and max_bytes < 0:
            raise StoreError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: Running on-disk footprint estimate (scanned once, bumped per
        #: write) so a capped store does not re-walk every entry on
        #: every put; :meth:`gc` re-syncs it with the exact scan.
        self._disk_estimate: Optional[int] = None
        #: Paths whose existing file failed to load (corrupt or from an
        #: old payload version): ``put`` must overwrite these, not skip.
        self._stale: set = set()
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:  # root is a file, unwritable parent, ...
            raise StoreError(
                f"cannot use {self.root!r} as a plan-store directory: {exc}"
            ) from exc
        self._check_layout()

    def _check_layout(self) -> None:
        stamp = os.path.join(self.root, "store-format.json")
        if os.path.exists(stamp):
            try:
                with open(stamp, encoding="utf-8") as fp:
                    version = json.load(fp).get("layout_version")
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store stamp {stamp}") from exc
            if version != STORE_LAYOUT_VERSION:
                raise StoreError(
                    f"plan store {self.root} uses layout {version!r}; this "
                    f"build writes layout {STORE_LAYOUT_VERSION} -- point "
                    f"--cache-dir at a fresh directory"
                )
            return
        self._atomic_write(stamp, json.dumps(
            {"kind": "plan_store", "layout_version": STORE_LAYOUT_VERSION}
        ))

    def _path(self, namespace: str, key) -> str:
        return self.digest_path(namespace, self.digest(key))

    def _atomic_write(self, path: str, text: str) -> None:
        """Temp file + ``os.replace``, durably when :data:`FSYNC_ENV` allows.

        ``os.replace`` alone is atomic against concurrent *readers* but
        not against power loss: without an fsync the rename can reach
        disk before the data, leaving a zero-length or truncated file
        under the final name after a crash.  So (unless
        ``REPRO_STORE_FSYNC=0`` opts out, e.g. for throwaway test
        stores) the temp file is fsynced before the rename and the
        directory after it -- the POSIX recipe for "either the old
        state or the complete new file".  A reader that still finds
        garbage (crash with fsync off, torn disk) hits the corrupt-
        payload path in :meth:`get`, which records a miss and marks
        the path for rewrite -- never a crash.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fsync = os.environ.get(FSYNC_ENV, "1") != "0"
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                fp.write(text)
                if fsync:
                    fp.flush()
                    os.fsync(fp.fileno())
            os.replace(tmp, path)
            if fsync and hasattr(os, "O_DIRECTORY"):
                # Persist the rename itself (POSIX only; harmless to
                # skip where directories cannot be opened).
                try:
                    dir_fd = os.open(os.path.dirname(path) or ".",
                                     os.O_RDONLY | os.O_DIRECTORY)
                except OSError:
                    pass
                else:
                    try:
                        os.fsync(dir_fd)
                    finally:
                        os.close(dir_fd)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, namespace: str, key) -> Any:
        return self.get_with_source(namespace, key)[0]

    def get_with_source(self, namespace: str, key):
        value = super().get(namespace, key)
        if value is not MISS:
            return value, "memory"
        if namespace not in PERSISTENT_NAMESPACES:
            return MISS, "miss"
        path = self._path(namespace, key)
        try:
            with open(path, encoding="utf-8") as fp:
                payload = json.load(fp)
            value = payload_from_dict(payload)
        except FileNotFoundError:
            self.counters["disk_misses"] = \
                self.counters.get("disk_misses", 0) + 1
            return MISS, "miss"
        except (OSError, ValueError, RecursionError, ReproError):
            # Corrupt, malformed or version-incompatible payload (a
            # SerializationError, or a domain error such as a profile
            # that fails validation): recompute, and remember the path
            # so the eventual put rewrites the file.
            self._stale.add(path)
            self.counters["disk_misses"] = \
                self.counters.get("disk_misses", 0) + 1
            return MISS, "miss"
        self.counters["disk_hits"] = self.counters.get("disk_hits", 0) + 1
        try:
            os.utime(path)  # refresh LRU recency for the GC policy
        except OSError:
            pass
        super().put(namespace, key, value)
        return value, "disk"

    def put(self, namespace: str, key, value) -> None:
        super().put(namespace, key, value)
        if namespace not in PERSISTENT_NAMESPACES:
            return
        path = self._path(namespace, key)
        if os.path.exists(path) and path not in self._stale:
            return
        with self._lock, store_lock(self.root, exclusive=False):
            if os.path.exists(path) and path not in self._stale:
                return
            text = json.dumps(payload_to_dict(value))
            self._atomic_write(path, text)
            self._stale.discard(path)
            self.counters["disk_writes"] = \
                self.counters.get("disk_writes", 0) + 1
            written = len(text.encode("utf-8"))
        if self.max_bytes is not None:
            if self._disk_estimate is None:
                self._disk_estimate = self.disk_bytes()
            else:
                self._disk_estimate += written
            if self._disk_estimate > self.max_bytes:
                self.gc(self.max_bytes)

    def clear(self) -> None:
        """Drop the memory tier only; the on-disk store is durable."""
        super().clear()

    def entries(self, namespace: str) -> Iterable[str]:
        """Hex keys currently persisted for one namespace (diagnostics)."""
        directory = os.path.join(self.root, namespace)
        if not os.path.isdir(directory):
            return []
        return sorted(
            name[:-5] for name in os.listdir(directory)
            if name.endswith(".json")
        )

    def digest_path(self, namespace: str, digest: str) -> str:
        """On-disk path of the entry (present or not) whose key has
        ``stable_key`` digest ``digest`` -- provenance."""
        return os.path.join(self.root, namespace, digest + ".json")

    # -- provenance sidecar --------------------------------------------------
    # Provenance records live beside -- not inside -- the cache
    # namespaces: they are per-plan diagnostics keyed by the frontier
    # digest, not content-addressed artifacts, so ``gc`` never scans
    # them and a pruned frontier keeps its history.

    def put_provenance(self, digest: str, record: dict) -> str:
        """Persist one provenance record; returns its path."""
        from ..obs.provenance import provenance_path
        path = provenance_path(self.root, digest)
        self._atomic_write(path, json.dumps(record, sort_keys=True,
                                            default=str))
        return path

    # -- eviction ------------------------------------------------------------
    def _disk_entries(self) -> list:
        """(mtime, size, path) of every persisted entry file."""
        entries = []
        for namespace in PERSISTENT_NAMESPACES:
            directory = os.path.join(self.root, namespace)
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # concurrently pruned
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def disk_bytes(self) -> int:
        """Total size of the persisted entries (the stamp is excluded)."""
        return sum(size for _, size, _ in self._disk_entries())

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Prune least-recently-used entries until the store fits.

        ``max_bytes`` defaults to the store's configured cap; ``0``
        clears every persisted entry.  Recency is file mtime: writes
        create it, disk hits refresh it, so untouched artifacts age
        out first.  The scan-and-delete runs under the store's
        exclusive :func:`store_lock`, so it serializes against
        concurrent writers (``put`` holds the lock shared) and against
        a second gc -- a file being re-put can never be unlinked
        mid-write, and two gcs never double-prune one mtime ordering.
        Returns ``{"removed", "freed_bytes", "kept_bytes"}``.

        Pruned entries disappear from disk only; values already
        promoted to this process's memory tier stay served from there
        (and a later ``put`` re-persists them).
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            raise StoreError("gc needs a size cap (max_bytes)")
        if cap < 0:
            raise StoreError("max_bytes must be non-negative")
        removed = 0
        freed = 0
        with store_lock(self.root, exclusive=True):
            entries = self._disk_entries()
            total = sum(size for _, size, _ in entries)
            entries.sort()  # oldest mtime first
            for mtime, size, path in entries:
                if total - freed <= cap:
                    break
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
                except OSError:
                    continue
                removed += 1
                freed += size
                self._stale.discard(path)
        self.counters["gc_removed"] = \
            self.counters.get("gc_removed", 0) + removed
        self._disk_estimate = total - freed
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept_bytes": total - freed,
        }


#: Environment variable giving path-constructed stores a size cap
#: (``as_backend``); accepts :func:`parse_size` suffixes.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

_SIZE_SUFFIXES = {"": 1, "K": 1024, "M": 1024 ** 2, "G": 1024 ** 3,
                  "T": 1024 ** 4}


def parse_size(text: Union[str, int]) -> int:
    """``"200M"`` / ``"1G"`` / ``"1048576"`` -> bytes (binary suffixes).

    A trailing ``B`` is tolerated (``"200MB"``); fractions work
    (``"1.5G"``).  Raises :class:`StoreError` on anything else.
    """
    if isinstance(text, int):
        if text < 0:
            raise StoreError("size must be non-negative")
        return text
    raw = text.strip().upper()
    if raw.endswith("B"):
        raw = raw[:-1]
    suffix = raw[-1:] if raw[-1:] in _SIZE_SUFFIXES else ""
    number = raw[: len(raw) - len(suffix)] if suffix else raw
    try:
        value = float(number)
    except ValueError:
        raise StoreError(f"cannot parse size {text!r} (use e.g. 200M, 1G)")
    if value < 0:
        raise StoreError("size must be non-negative")
    return int(value * _SIZE_SUFFIXES[suffix])


def as_backend(cache) -> MemoryCache:
    """Coerce a user-facing ``cache`` argument to a cache.

    ``None`` -> fresh :class:`MemoryCache`; a path -> :class:`PlanStore`
    rooted there (capped at ``REPRO_CACHE_MAX_BYTES`` when that is
    set); an existing cache passes through (shared stores).
    """
    if cache is None:
        return MemoryCache()
    if isinstance(cache, MemoryCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        cap = os.environ.get(CACHE_MAX_BYTES_ENV)
        return PlanStore(cache, max_bytes=parse_size(cap) if cap else None)
    raise TypeError(
        f"cache must be None, a directory path or a MemoryCache, "
        f"got {type(cache).__name__}"
    )
