"""Pluggable buffer backends for :class:`~repro.graph.csr.CSRGraph`.

A CSR graph is, at bottom, a handful of flat numpy arrays.  Historically
those arrays always lived in process-private RAM; this module makes the
backing store pluggable, which is what both scale ceilings named in the
roadmap need:

* ``"ram"`` — plain numpy arrays (the default, unchanged behavior);
* ``"shm"`` — one POSIX shared-memory segment
  (:mod:`multiprocessing.shared_memory`) holding every buffer, so a
  fleet of worker processes can attach the *same physical pages*
  instead of each receiving a multi-hundred-megabyte pickle;
* ``"mmap"`` — :class:`numpy.memmap` views over an **uncompressed**
  ``.npz`` sidecar file, so a graph larger than physical memory is
  paged in on demand (out-of-core) and any number of processes share
  the page cache.

The unit of exchange is a :class:`CSRHandle`: a tiny, picklable
descriptor (segment name / file path plus per-array dtype, shape and
byte offset) that reattaches **zero-copy** in another process via
:func:`attach_csr`.  A shm/mmap-backed :class:`CSRGraph` pickles *as*
its handle (see :meth:`CSRGraph.__reduce_ex__`), so shipping one to a
``ProcessPoolExecutor`` worker costs O(1) bytes regardless of graph
size — the difference between "each worker deserialises Orkut" and
"each worker opens Orkut".

Ownership and cleanup semantics
-------------------------------

:func:`publish_csr` returns a :class:`CSRPublication`, which *owns* the
external resource (the segment, or the spilled sidecar file):

* workers that :func:`attach_csr` a handle own nothing — their mapping
  dies with the process (attachments deliberately bypass the
  ``resource_tracker``, which would otherwise unlink a segment the
  moment the *first* worker exits);
* the publisher must call :meth:`CSRPublication.unlink` (or use the
  publication as a context manager) when the fleet is done;
* a publication garbage-collected without ``unlink`` emits a
  :class:`ResourceWarning` *and* cleans up best-effort, so leak bugs
  are loud in ``-W error::ResourceWarning`` runs (CI sets exactly that
  flag) instead of silently filling ``/dev/shm``.

The ``.npz`` format used by :func:`save_csr_npz` is the plain
uncompressed archive :func:`numpy.savez` writes, which is also what the
``repro.graph.io`` edge-list sidecar cache uses — so existing sidecars
open memmap-native with no conversion step
(:func:`npz_array_specs` locates each member's raw bytes inside the
zip and hands them to :class:`numpy.memmap` directly).
"""

from __future__ import annotations

import atexit
import mmap as _mmap_module
import os
import pickle
import re
import tempfile
import time
import uuid
import warnings
import weakref
import zipfile
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.durability import (
    JOURNAL_SUFFIX,
    SCRATCH_PATTERN,
    journal_is_committed,
    verify_artifact,
)
from repro.durability import write_npz as _write_checksummed_npz
from repro.exceptions import ConfigurationError, StoreAttachError
from repro.graph.csr import CSRGraph
from repro.resilience.faults import fire

#: Buffer backends a CSR graph can live in, and the value set of every
#: ``graph_store`` knob (config, CLI, registry, runner).
GRAPH_STORES: Tuple[str, ...] = ("ram", "shm", "mmap")

#: Buffer alignment inside a shared-memory segment (numpy is happiest
#: on cache-line-or-better boundaries; 64 covers every dtype here).
_SHM_ALIGN = 64


def validate_graph_store(store: str) -> str:
    """Return *store* or raise the shared unknown-graph-store error."""
    if store not in GRAPH_STORES:
        raise ConfigurationError(
            f"unknown graph store {store!r}; available: {', '.join(GRAPH_STORES)}"
        )
    return store


@dataclass(frozen=True)
class ArraySpec:
    """Where one named buffer lives inside a segment or sidecar file.

    ``offset`` is a byte offset — into the shared-memory segment for the
    ``"shm"`` store, into the ``.npz`` file (past the zip local header
    and the ``.npy`` member header) for ``"mmap"``.
    """

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    def size_bytes(self) -> int:
        """Byte length of the described buffer."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class CSRHandle:
    """O(1)-picklable descriptor of an externally-backed CSR graph.

    ``location`` is the shared-memory segment name (``store="shm"``) or
    the sidecar file path (``store="mmap"``); ``arrays`` describes the
    buffers by key — ``"indptr"`` and ``"indices"`` always, plus
    ``"label_array"`` / ``"node_ids"`` when the graph carries them.
    :func:`attach_csr` turns a handle back into a zero-copy
    :class:`~repro.graph.csr.CSRGraph` in any process that can reach
    the segment/file.

    Derived caches travel too: any label masks, per-label neighbor
    counts and ground-truth counts the publisher had already computed
    are published alongside the buffers (``masks`` /
    ``neighbor_counts`` map labels to array keys, ``target_counts``
    carries the scalars),
    so an attached graph starts *warm* — a worker never repeats the
    publisher's O(|E|) classification passes.  The handle itself stays
    a few hundred bytes.
    """

    store: str
    location: str
    arrays: Tuple[ArraySpec, ...]
    #: ``(label, array_key)`` pairs for published label masks.
    masks: Tuple[Tuple[object, str], ...] = ()
    #: ``(label, array_key)`` pairs for published per-label neighbor counts.
    neighbor_counts: Tuple[Tuple[object, str], ...] = ()
    #: ``(t1, t2, count)`` ground-truth target-edge counts.
    target_counts: Tuple[Tuple[object, object, int], ...] = ()

    def __post_init__(self) -> None:
        if self.store not in ("shm", "mmap"):
            raise ConfigurationError(
                f"a CSRHandle describes an external store (shm or mmap), "
                f"got {self.store!r}"
            )

    def spec(self, key: str) -> Optional[ArraySpec]:
        """The :class:`ArraySpec` named *key*, or ``None``."""
        for spec in self.arrays:
            if spec.key == key:
                return spec
        return None


def _publishable_arrays(csr: CSRGraph) -> List[Tuple[str, np.ndarray]]:
    """The (key, array) payload of *csr*, or raise if it has any.

    Python-object state (per-node label *sets*, non-array node ids)
    cannot live in a flat buffer; such graphs predate the array-native
    plane and must be re-labeled with a ``label_array`` first.
    """
    payload: List[Tuple[str, np.ndarray]] = [
        ("indptr", csr.indptr),
        ("indices", csr.indices),
    ]
    if csr._label_sets is not None:
        raise ConfigurationError(
            "set-labeled CSR graphs cannot be published to an external "
            "store; relabel with a label_array (the array labelers) first"
        )
    label_array = csr.label_array()
    if label_array is not None:
        payload.append(("label_array", np.ascontiguousarray(label_array)))
    node_ids = csr._node_ids
    if node_ids is not None:
        if not isinstance(node_ids, np.ndarray):
            raise ConfigurationError(
                "CSR graphs with Python-object node ids cannot be published "
                "to an external store; use identity or numpy node ids"
            )
        payload.append(("node_ids", np.ascontiguousarray(node_ids)))
    return payload


def _cache_payload(csr: CSRGraph) -> Tuple[
    List[Tuple[str, np.ndarray]],
    Tuple[Tuple[object, str], ...],
    Tuple[Tuple[object, str], ...],
    Tuple[Tuple[object, object, int], ...],
]:
    """Whatever derived label caches *csr* already computed, as buffers.

    The publisher typically computed the ground truth before fanning
    out, which populated the label masks and the per-label neighbor
    counts — exactly the O(|E|)-to-derive, O(|V|)-to-store arrays every
    worker needs for classification.  Publishing them costs one |V|
    buffer per label in the segment and saves each attacher the
    recompute.
    """
    payload: List[Tuple[str, np.ndarray]] = []

    def manifest(name: str, cache: Dict) -> Tuple[Tuple[object, str], ...]:
        entries = []
        for position, (label, array) in enumerate(cache.items()):
            key = f"cache_{name}_{position}"
            payload.append((key, np.ascontiguousarray(array)))
            entries.append((label, key))
        return tuple(entries)

    masks = manifest("mask", csr._mask_cache)
    neighbor_counts = manifest("neighbor_counts", csr._neighbor_count_cache)
    target_counts = tuple(
        (pair[0], pair[1], int(count))
        for pair, count in csr._target_count_cache.items()
    )
    return payload, masks, neighbor_counts, target_counts


def _align(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN


def _build_csr(
    arrays: Dict[str, np.ndarray], store: str, owner, handle: "CSRHandle"
) -> CSRGraph:
    """Assemble an attached CSRGraph from named buffers (zero-copy).

    Published derived caches (label masks, per-label neighbor counts,
    ground-truth counts) are re-wired from the handle's manifests, so
    the attached graph classifies without repeating the publisher's
    O(|E|) passes.
    """
    csr = CSRGraph(
        arrays.get("node_ids"),
        arrays["indptr"],
        arrays["indices"],
        label_array=arrays.get("label_array"),
        validate=False,
    )
    csr.store = store
    csr._buffer_owner = owner
    csr._handle = handle
    for label, key in handle.masks:
        if key in arrays:
            csr._mask_cache[label] = arrays[key]
    for label, key in handle.neighbor_counts:
        if key in arrays:
            csr._neighbor_count_cache[label] = arrays[key]
    for t1, t2, count in handle.target_counts:
        csr._target_count_cache[(t1, t2)] = int(count)
    csr.seal_buffers(f"attached from {store}")
    return csr


# ----------------------------------------------------------------------
# shared-memory backend
# ----------------------------------------------------------------------
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker registration.

    On 3.8–3.12 attaching registers the segment with the process's
    ``resource_tracker``, which *unlinks it* when that process exits —
    the first worker to finish would tear the graph out from under the
    rest of the fleet (and print a spurious leak warning).  3.13 grew
    ``track=False`` for exactly this; older interpreters get the
    documented unregister workaround.  Lifetime stays with the
    publisher, where it belongs.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except FileNotFoundError as exc:
        raise StoreAttachError(
            f"shared-memory segment {name!r} does not exist (unlinked by its "
            f"publisher, or published on another host)",
            location=name,
        ) from exc
    except TypeError:  # Python < 3.13: no track parameter
        # Suppress the tracker registration rather than unregistering
        # afterwards: an unregister would also knock out the *creator's*
        # registration when publisher and attacher share a process.
        original_register = resource_tracker.register

        def _skip_shared_memory(name, rtype):  # pragma: no branch
            if rtype != "shared_memory":
                original_register(name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise StoreAttachError(
                f"shared-memory segment {name!r} does not exist (unlinked by "
                f"its publisher, or published on another host)",
                location=name,
            ) from exc
        finally:
            resource_tracker.register = original_register


def _publish_shm(
    payload: List[Tuple[str, np.ndarray]],
    masks: Tuple[Tuple[object, str], ...],
    neighbor_counts: Tuple[Tuple[object, str], ...],
    target_counts: Tuple[Tuple[object, object, int], ...],
) -> Tuple[shared_memory.SharedMemory, CSRHandle]:
    specs: List[ArraySpec] = []
    offset = 0
    for key, array in payload:
        offset = _align(offset)
        specs.append(ArraySpec(key, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for spec, (_, array) in zip(specs, payload):
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view[...] = array
    return segment, CSRHandle(
        "shm", segment.name, tuple(specs), masks, neighbor_counts, target_counts
    )


def _attach_shm(handle: CSRHandle) -> CSRGraph:
    segment = _attach_segment(handle.location)
    arrays: Dict[str, np.ndarray] = {}
    for spec in handle.arrays:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view.setflags(write=False)
        arrays[spec.key] = view
    return _build_csr(arrays, "shm", segment, handle)


# ----------------------------------------------------------------------
# memory-mapped npz backend
# ----------------------------------------------------------------------
def npz_array_specs(path: Union[str, Path]) -> List[ArraySpec]:
    """Locate every array member's raw data inside an uncompressed ``.npz``.

    A :func:`numpy.savez` archive stores each array as an uncompressed
    ``<key>.npy`` zip member, so the array bytes sit contiguously in the
    file at a computable offset: the member's local zip header, then the
    ``.npy`` magic/header, then the data.  That offset plus the parsed
    dtype/shape is everything :class:`numpy.memmap` needs — the sidecar
    caches written by :mod:`repro.graph.io` open memmap-native with no
    rewrite.  Compressed members (``np.savez_compressed``) cannot be
    mapped and raise :class:`ConfigurationError`.
    """
    path = Path(path)
    specs: List[ArraySpec] = []
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ConfigurationError(
                    f"{path}: member {info.filename!r} is compressed; only "
                    "uncompressed archives (np.savez) can be memory-mapped"
                )
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                else:  # pragma: no cover - no writer emits other versions
                    raise ConfigurationError(
                        f"{path}: unsupported .npy format version {version}"
                    )
                header_size = member.tell()
            if fortran and len(shape) > 1:  # pragma: no cover - 1-d payloads
                raise ConfigurationError(
                    f"{path}: Fortran-ordered member {info.filename!r} "
                    "cannot be memory-mapped as C-contiguous"
                )
            # The central directory's extra field can differ from the
            # local header's, so read the local header to find the data.
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ConfigurationError(f"{path}: corrupt zip local header")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            data_offset = info.header_offset + 30 + name_len + extra_len + header_size
            key = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
            specs.append(ArraySpec(key, dtype.str, tuple(shape), data_offset))
    return specs


def _attach_mmap(handle: CSRHandle) -> CSRGraph:
    path = Path(handle.location)
    try:
        arrays: Dict[str, np.ndarray] = {
            spec.key: np.memmap(
                path, dtype=np.dtype(spec.dtype), mode="r",
                offset=spec.offset, shape=spec.shape,
            )
            for spec in handle.arrays
        }
    except FileNotFoundError as exc:
        raise StoreAttachError(
            f"sidecar file {str(path)!r} does not exist (deleted out from "
            f"under its handle, or spilled on another host)",
            location=str(path),
        ) from exc
    csr = _build_csr(arrays, "mmap", None, handle)
    # Advise MADV_RANDOM *after* construction: the sequential reads the
    # constructor performs (np.diff over indptr) still benefit from
    # readahead, while the walks' random gathers stop paging in 128 KB
    # of neighbors around every 4-byte access — without this, kernel
    # readahead quietly makes the whole file resident and the
    # out-of-core story is fiction.
    for view in arrays.values():
        backing = getattr(view, "_mmap", None)
        if backing is not None and hasattr(_mmap_module, "MADV_RANDOM"):
            try:
                backing.madvise(_mmap_module.MADV_RANDOM)
            except (OSError, ValueError):  # pragma: no cover - advisory only
                pass
    return csr


def _write_npz(path: Path, payload: Dict[str, np.ndarray]) -> Path:
    """Write *payload* as a checksummed uncompressed ``.npz``, atomically.

    Delegates to :func:`repro.durability.write_npz`: pid-stamped scratch
    file in the same directory, blake2b manifest footer, fsync, rename —
    a concurrent reader never sees a half-written archive, a crashed
    writer never corrupts an existing one, and the attach paths verify
    the manifest before mapping a byte.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    return _write_checksummed_npz(path, payload)


def save_csr_npz(csr: CSRGraph, path: Union[str, Path]) -> Path:
    """Spill *csr*'s buffers to an uncompressed ``.npz`` sidecar.

    Open it back with :func:`load_csr_npz` — memmap-native or fully
    loaded.  Only the defining buffers are written (derived caches are
    a :func:`publish_csr` concern; a standalone sidecar is typically
    spilled before any classification ran).
    """
    return _write_npz(Path(path), dict(_publishable_arrays(csr)))


def load_csr_npz(path: Union[str, Path], mmap: bool = True) -> CSRGraph:
    """Open a :func:`save_csr_npz` sidecar as a :class:`CSRGraph`.

    With ``mmap=True`` (default) every buffer is a read-only
    :class:`numpy.memmap` view — O(1) open, pages fault in on demand,
    and the resulting graph pickles as its :class:`CSRHandle`.  With
    ``mmap=False`` the arrays are fully loaded into process RAM.
    """
    path = Path(path)
    if mmap:
        verify_artifact(path)
        return _attach_mmap(CSRHandle("mmap", str(path), tuple(npz_array_specs(path))))
    verify_artifact(path)
    with np.load(path) as payload:
        arrays = {key: np.ascontiguousarray(payload[key]) for key in payload.files}
    return CSRGraph(
        arrays.get("node_ids"),
        arrays["indptr"],
        arrays["indices"],
        label_array=arrays.get("label_array"),
        validate=False,
    )


# ----------------------------------------------------------------------
# publication lifecycle
# ----------------------------------------------------------------------
class CSRPublication:
    """Ownership token for a published CSR buffer set.

    The publisher-side half of the handle protocol: holds the external
    resource (shared-memory segment or spilled sidecar file) alive while
    workers attach, and releases it on :meth:`unlink`.  Usable as a
    context manager; a publication that is garbage-collected still
    owning its resource emits a :class:`ResourceWarning` (and cleans up
    best-effort) so leaks fail ``-W error::ResourceWarning`` runs.
    """

    def __init__(
        self,
        handle: CSRHandle,
        segment: Optional[shared_memory.SharedMemory] = None,
        path: Optional[Path] = None,
        owns_resource: bool = True,
    ) -> None:
        self.handle = handle
        self._segment = segment
        self._path = path
        self._owns = owns_resource

    @property
    def store(self) -> str:
        """Which backend the publication lives in (``"shm"`` / ``"mmap"``)."""
        return self.handle.store

    @property
    def owns_resource(self) -> bool:
        """Whether this publication owns (and must release) the resource.

        ``False`` for the re-publication of an already-attached graph:
        the pre-existing handle was reused — which also means caches
        computed *since* that handle was written are not in it (the
        caller can ship those by value, see
        :meth:`CSRGraph.export_label_caches`).
        """
        return self._owns

    def attach(self) -> CSRGraph:
        """Attach this publication in the current process (zero-copy)."""
        return attach_csr(self.handle)

    def close(self) -> None:
        """Drop this process's mapping (workers get this implicitly at exit)."""
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:
                # Attached arrays still alive in this process; the
                # mapping goes when they do.
                pass

    def unlink(self) -> None:
        """Release the external resource (idempotent).

        Shared-memory segments are unlinked from the kernel; spilled
        sidecar files are deleted.  Attached views in *other* processes
        stay valid until those processes drop their mappings (POSIX
        unlink semantics), so the publisher can unlink as soon as every
        worker has attached.
        """
        if not self._owns:
            return
        self._owns = False
        if self._segment is not None:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if self._path is not None:
            Path(self._path).unlink(missing_ok=True)

    def __enter__(self) -> "CSRPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()

    def __del__(self) -> None:
        if getattr(self, "_owns", False):
            # Release first, warn second: under ``-W error::ResourceWarning``
            # the warn call raises, and cleanup must already have happened
            # by then (the raised error surfaces as an unraisable
            # exception, which CI escalates — see ci.yml).
            self.close()
            self.unlink()
            warnings.warn(
                f"CSRPublication({self.handle.store}:{self.handle.location}) "
                "was never unlinked; it was released in __del__",
                ResourceWarning,
                source=self,
            )


def default_mmap_dir() -> Path:
    """Directory for spilled sidecars (``REPRO_MMAP_DIR`` overrides)."""
    configured = os.environ.get("REPRO_MMAP_DIR")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-osn-mmap"


# ----------------------------------------------------------------------
# spill-file ownership
# ----------------------------------------------------------------------
class SpillOwnership:
    """Ownership token for one spilled sidecar file under the mmap dir.

    The mmap twin of :class:`CSRPublication`'s discipline, closing the
    historical leak: sidecars spilled by ``load_dataset(...,
    graph_store="mmap")`` were never reclaimed, so every run left
    another ``.npz`` under ``$REPRO_MMAP_DIR``.  Whoever holds the
    token owns the file; :meth:`release` deletes it (idempotent —
    POSIX unlink semantics keep live :class:`numpy.memmap` views in
    this and other processes valid until they unmap).  A token
    garbage-collected still owning its file cleans up best-effort and
    emits a :class:`ResourceWarning`, loud under the CI's
    ``-W error::ResourceWarning`` ladder; tokens still alive at
    interpreter exit are released quietly first (an :mod:`atexit` hook
    drains the registry before teardown GC, so long-lived caches don't
    false-positive).
    """

    def __init__(self, path: Union[str, Path], owns_resource: bool = True) -> None:
        self.path = Path(path)
        self._owns = owns_resource

    @property
    def owns_resource(self) -> bool:
        """Whether this token still owns (and must delete) the file."""
        return self._owns

    def release(self) -> None:
        """Delete the spilled file (idempotent)."""
        if not self._owns:
            return
        self._owns = False
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "SpillOwnership":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:
        if getattr(self, "_owns", False):
            # Clean up before warning: under -W error::ResourceWarning
            # the warn call raises (surfacing as an unraisable error CI
            # escalates), and the file must already be gone by then.
            self.release()
            warnings.warn(
                f"SpillOwnership({self.path}) was never released; "
                "it was deleted in __del__",
                ResourceWarning,
                source=self,
            )


#: Live spill tokens of this process, keyed by path.  Weak values: a
#: token dropped by its holder leaves the registry on its own (after
#: __del__ has cleaned up), so the registry never extends a lifetime.
_TRACKED_SPILLS: "weakref.WeakValueDictionary[str, SpillOwnership]" = (
    weakref.WeakValueDictionary()
)


def track_spill(path: Union[str, Path]) -> SpillOwnership:
    """Register *path* as a spill this process owns; returns the token."""
    token = SpillOwnership(path)
    _TRACKED_SPILLS[str(Path(path))] = token
    return token


@atexit.register
def _release_tracked_spills() -> None:  # pragma: no cover - exit path
    """Quietly delete still-owned spills at interpreter exit.

    Long-lived holders (the dataset registry's in-process cache, a
    serving process's publication) legitimately keep their tokens until
    the very end; draining them here — before teardown GC runs
    ``__del__`` — deletes the files without tripping the
    ResourceWarning meant for mid-run leaks.
    """
    for token in list(_TRACKED_SPILLS.values()):
        token.release()


#: File-name patterns whose embedded pid identifies the spilling
#: process: publish_csr's ``csr-<pid>-<uuid>.npz`` and the dataset
#: registry's ``<name>-seed<s>-scale<f>-pid<pid>.npz``.
_SPILL_PID_PATTERNS = (
    re.compile(r"^csr-(?P<pid>\d+)-[0-9a-f]+\.npz$"),
    re.compile(r"^.+-pid(?P<pid>\d+)\.npz$"),
)


def _spill_owner_pid(name: str) -> Optional[int]:
    for pattern in _SPILL_PID_PATTERNS:
        match = pattern.match(name)
        if match:
            return int(match.group("pid"))
    return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def sweep_orphan_spills(
    directory: Union[None, str, Path] = None,
    max_age_seconds: Optional[float] = None,
    dry_run: bool = False,
) -> List[Path]:
    """Delete spill files whose owning process is gone; return the victims.

    The opt-in janitor for ``$REPRO_MMAP_DIR`` (exposed as ``repro-osn
    sweep-spills``): ownership tracking reclaims spills on clean exits,
    but a SIGKILLed run leaves its files behind with nobody holding a
    token.  Under *directory* (default :func:`default_mmap_dir`),

    * a ``.npz`` spill is an orphan when its name embeds a spilling pid
      that is no longer alive, or when it embeds no pid (hand-named
      spills, pre-tracking leftovers), *max_age_seconds* is given, and
      its mtime is older than that;
    * an atomic-write scratch file (``.<name>.pid<pid>.<uuid>.tmp`` —
      the only garbage the durability layer's write protocol can leave)
      is an orphan when its writer pid is dead — that covers sidecar,
      checkpoint and snapshot temps alike;
    * an experiment journal (``*.journal.jsonl``) is an orphan only
      when it recorded a ``commit`` — its run completed and delivered.
      **Uncommitted journals are never swept**: they are the resume
      state of a crashed sweep, exactly what ``--resume`` needs.

    Files this process currently owns a token for are never touched,
    and neither are pid-less spills when no age bound was passed (the
    sweep refuses to guess).  ``dry_run=True`` reports without
    deleting.
    """
    target = Path(directory) if directory is not None else default_mmap_dir()
    if not target.is_dir():
        return []
    tracked = {str(Path(path)) for path in _TRACKED_SPILLS.keys()}
    victims: List[Path] = []
    now = time.time()
    for path in sorted(target.iterdir()):
        if str(path) in tracked or not path.is_file():
            continue
        name = path.name
        scratch = SCRATCH_PATTERN.match(name)
        if scratch is not None:
            pid = int(scratch.group("pid"))
            orphaned = pid != os.getpid() and not _pid_alive(pid)
        elif name.endswith(JOURNAL_SUFFIX):
            orphaned = journal_is_committed(path)
        elif name.endswith(".npz"):
            pid = _spill_owner_pid(name)
            if pid is not None:
                orphaned = pid != os.getpid() and not _pid_alive(pid)
            elif max_age_seconds is not None:
                try:
                    orphaned = (now - path.stat().st_mtime) > max_age_seconds
                except FileNotFoundError:  # pragma: no cover - raced deletion
                    continue
            else:
                orphaned = False
        else:
            continue
        if orphaned:
            victims.append(path)
            if not dry_run:
                path.unlink(missing_ok=True)
    return victims


def publish_csr(
    csr: CSRGraph,
    store: str,
    directory: Union[None, str, Path] = None,
) -> CSRPublication:
    """Publish *csr*'s buffers to an external *store*; return the ownership token.

    ``store="shm"`` copies the buffers once into one fresh
    shared-memory segment; ``store="mmap"`` spills them to an
    uncompressed ``.npz`` under *directory* (default
    :func:`default_mmap_dir`).  A graph **already backed** by the
    requested store is re-published for free: its existing handle is
    reused and the returned publication owns nothing (``unlink`` is a
    no-op), so republishing an attached graph can never tear it down.
    """
    if store not in ("shm", "mmap"):
        raise ConfigurationError(
            f"publish_csr targets an external store (shm or mmap), got {store!r}"
        )
    existing = getattr(csr, "_handle", None)
    if existing is not None and existing.store == store:
        csr.seal_buffers(f"published to {store}")
        return CSRPublication(existing, owns_resource=False)
    payload = _publishable_arrays(csr)
    caches, masks, neighbor_counts, target_counts = _cache_payload(csr)
    payload = payload + caches
    # The publisher's own copy must match what workers attached: freeze
    # it so a post-publish in-place write raises instead of silently
    # diverging from the shared buffers (and from version-stamped
    # cached answers in the serving layer).
    csr.seal_buffers(f"published to {store}")
    if store == "shm":
        segment, handle = _publish_shm(payload, masks, neighbor_counts, target_counts)
        return CSRPublication(handle, segment=segment)
    target = Path(directory) if directory is not None else default_mmap_dir()
    path = target / f"csr-{os.getpid()}-{uuid.uuid4().hex}.npz"
    _write_npz(path, dict(payload))
    handle = CSRHandle(
        "mmap",
        str(path),
        tuple(npz_array_specs(path)),
        masks,
        neighbor_counts,
        target_counts,
    )
    return CSRPublication(handle, path=path)


def attach_csr(handle: CSRHandle) -> CSRGraph:
    """Reattach a published CSR graph from its :class:`CSRHandle`.

    Zero-copy: the returned graph's ``indptr`` / ``indices`` /
    ``label_array`` are read-only views over the shared segment or the
    memory-mapped sidecar.  The attachment owns no external resource —
    cleanup stays with the :class:`CSRPublication` — and the graph
    re-pickles as its handle, so it can be forwarded to further
    processes at O(1) cost.
    """
    if isinstance(handle, (bytes, bytearray)):  # defensive: raw pickles
        handle = pickle.loads(handle)
    if not isinstance(handle, CSRHandle):
        raise ConfigurationError(f"attach_csr needs a CSRHandle, got {type(handle).__name__}")
    fire("store.attach", location=handle.location, store=handle.store)
    if handle.store == "shm":
        return _attach_shm(handle)
    # Verify the sidecar's manifest footer *before* memory-mapping a
    # byte: a torn or bit-flipped spill raises a typed (retryable)
    # ArtifactCorruptError instead of being silently walked.  Mode via
    # REPRO_VERIFY_ARTIFACTS (full | sampled | off).  A *missing*
    # sidecar is an attach race, not corruption — fall through so the
    # attach raises its usual retryable StoreAttachError.
    try:
        verify_artifact(handle.location)
    except FileNotFoundError:
        pass
    return _attach_mmap(handle)


def spill_csr_to_mmap(csr: CSRGraph, path: Union[str, Path]) -> CSRGraph:
    """Spill *csr* to a sidecar at *path* and reopen it memmap-backed.

    The registry's out-of-core hook: a freshly synthesised in-RAM graph
    becomes a disk-backed one whose arrays page in on demand and whose
    pickle is an O(1) handle.  The caller owns the file's lifetime
    (deterministic registry sidecars are left in place for reuse).
    """
    save_csr_npz(csr, path)
    return load_csr_npz(path, mmap=True)


__all__ = [
    "GRAPH_STORES",
    "validate_graph_store",
    "ArraySpec",
    "CSRHandle",
    "CSRPublication",
    "publish_csr",
    "attach_csr",
    "save_csr_npz",
    "load_csr_npz",
    "spill_csr_to_mmap",
    "npz_array_specs",
    "default_mmap_dir",
    "SpillOwnership",
    "track_spill",
    "sweep_orphan_spills",
]
