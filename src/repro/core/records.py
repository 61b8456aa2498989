"""Columnar trace-record storage.

The record path used to shuttle every event as an individual
:class:`~repro.core.trace.TraceRecord` dataclass instance: one Python
object per hook firing, one ``struct.pack`` call per record on save, one
``struct.unpack_from`` per record on load.  At the paper's event rates
(two function hooks per call plus a 4 Hz sensor sweep per node) a modest
run produces millions of records, and the per-object overhead dominates
every stage of the pipeline.

:class:`RecordColumns` replaces the object list with a single numpy
structured array whose dtype (:data:`RECORD_DTYPE`) is byte-identical to
the historical ``struct`` layout ``<Bqqiid``:

* appends are staged as row tuples and written into a chunked,
  amortized-doubling backing array in blocks of :data:`STAGE_ROWS` (one
  numpy conversion per block instead of one structured-scalar store per
  record); every read flushes the staged rows first;
* (de)serialization is ``tobytes`` / ``np.frombuffer`` on the whole
  buffer — zero per-record Python work, and byte-compatible with every
  ``tempest-trace-v1`` bundle and spool written before this existed;
* kind/pid/sensor filters are vectorized boolean masks over the columns;
* :class:`RecordSeq` provides a list-of-:class:`TraceRecord` view for
  callers (and tests) that still want per-record objects — the compat
  shim, not the hot path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.util.errors import TraceError

#: structured dtype matching the ``<Bqqiid`` record layout byte-for-byte:
#: kind, addr-or-sensor, tsc, core, pid, value — 33 bytes, no padding.
RECORD_DTYPE = np.dtype(
    [
        ("kind", "<u1"),
        ("addr", "<i8"),
        ("tsc", "<i8"),
        ("core", "<i4"),
        ("pid", "<i4"),
        ("value", "<f8"),
    ]
)

#: bytes per packed record (33; identical to ``struct.calcsize("<Bqqiid")``)
RECORD_SIZE = RECORD_DTYPE.itemsize

#: initial backing-array capacity for a fresh column store
_INITIAL_CAPACITY = 1024

#: rows staged by :meth:`RecordColumns.append_row` before they are written
#: into the backing array as one block.  Small on purpose: a staged tuple
#: costs ~200 bytes, and on an 8-rank CG class A simulation 1024 rows add
#: ~0.1 MB of peak RSS where 4096 add ~2.5 MB.
STAGE_ROWS = 1024


def empty_records() -> np.ndarray:
    """A zero-length structured record array."""
    return np.empty(0, dtype=RECORD_DTYPE)


def records_from_buffer(blob: bytes, *, copy: bool = False) -> np.ndarray:
    """Reinterpret packed record bytes as a structured array (zero-copy).

    *blob* must be a whole number of records; trim torn tails before
    calling.  The returned array is read-only unless ``copy`` is set.
    """
    if len(blob) % RECORD_SIZE:
        raise TraceError(
            f"{len(blob)} bytes is not a multiple of the "
            f"{RECORD_SIZE}-byte record size"
        )
    arr = np.frombuffer(blob, dtype=RECORD_DTYPE)
    return arr.copy() if copy else arr


def records_to_bytes(arr: np.ndarray) -> bytes:
    """Serialize a structured record array to the on-disk byte layout."""
    if arr.dtype != RECORD_DTYPE:
        arr = arr.astype(RECORD_DTYPE)
    return arr.tobytes()


class RecordColumns:
    """Append-optimized columnar store for trace records.

    Growth is chunked: the backing array doubles when full, so *n*
    appends cost amortized O(n).  :meth:`append_row` stages rows in a
    list and writes them as one block every :data:`STAGE_ROWS` rows;
    every read (``array``, ``to_bytes``, the masks, the record shims)
    and :meth:`extend_array` flush the stage first, so callers always
    see every appended row in append order.  ``array`` exposes the live
    prefix as a structured-array view — all vectorized consumers
    (parser, timeline, fault masks) read that.
    """

    __slots__ = ("_arr", "_n", "_stage")

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        self._arr = np.empty(max(1, int(capacity)), dtype=RECORD_DTYPE)
        self._n = 0          # rows written into _arr
        self._stage: list[tuple] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RecordColumns":
        """Adopt an existing structured array (copied into owned storage)."""
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        cols = cls(capacity=max(1, len(arr)))
        cols._arr[: len(arr)] = arr
        cols._n = len(arr)
        return cols

    @classmethod
    def from_buffer(cls, blob: bytes) -> "RecordColumns":
        """Deserialize packed record bytes (one bulk copy, no per-record work)."""
        return cls.from_array(records_from_buffer(blob))

    @classmethod
    def from_records(cls, records: Iterable) -> "RecordColumns":
        """Build from an iterable of :class:`TraceRecord`-shaped objects."""
        cols = cls()
        for r in records:
            cols.append_row(r.kind, r.addr, r.tsc, r.core, r.pid, r.value)
        return cols

    # -- appends --------------------------------------------------------
    def _grow_to(self, need: int) -> None:
        cap = len(self._arr)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        fresh = np.empty(cap, dtype=RECORD_DTYPE)
        fresh[: self._n] = self._arr[: self._n]
        self._arr = fresh

    def append_row(self, kind: int, addr: int, tsc: int, core: int,
                   pid: int, value: float = 0.0) -> None:
        """Append one record without constructing a TraceRecord object."""
        stage = self._stage
        stage.append((kind, addr, tsc, core, pid, value))
        if len(stage) >= STAGE_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Write the staged rows into the backing array as one block."""
        stage = self._stage
        if stage:
            n, k = self._n, len(stage)
            self._grow_to(n + k)
            self._arr[n: n + k] = stage
            self._n = n + k
            stage.clear()

    def extend_array(self, arr: np.ndarray) -> None:
        """Bulk-append a structured record array."""
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        k = len(arr)
        if not k:
            return
        self._flush()
        self._grow_to(self._n + k)
        self._arr[self._n: self._n + k] = arr
        self._n += k

    def clear(self) -> None:
        """Drop all records, staged ones too (capacity is retained)."""
        self._n = 0
        self._stage.clear()

    # -- reads ----------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """Structured-array view of the live records (no copy)."""
        self._flush()
        return self._arr[: self._n]

    def __len__(self) -> int:
        # counts staged rows without flushing them: the spool asks for
        # its chunk length on every record
        return self._n + len(self._stage)

    def to_bytes(self) -> bytes:
        """Single-buffer serialization of every record."""
        return records_to_bytes(self.array)

    # -- vectorized masks ----------------------------------------------
    def kind_mask(self, *kinds: int) -> np.ndarray:
        """Boolean mask selecting records of the given kinds."""
        col = self.array["kind"]
        mask = np.zeros(len(col), dtype=bool)
        for k in kinds:
            mask |= col == k
        return mask

    def pid_mask(self, pid: int) -> np.ndarray:
        """Boolean mask selecting one process's records."""
        return self.array["pid"] == pid

    def select(self, mask: np.ndarray) -> np.ndarray:
        """Records matching *mask*, as a fresh structured array."""
        return self.array[mask]

    # -- object shims ---------------------------------------------------
    def record_at(self, i: int):
        """Materialize record *i* as a :class:`TraceRecord` (compat path)."""
        return _to_record(self.array[i])

    def iter_records(self) -> Iterator:
        """Yield :class:`TraceRecord` objects (compat path, not the hot one)."""
        from repro.core.trace import TraceRecord

        for row in self.array:
            yield TraceRecord(
                int(row["kind"]), int(row["addr"]), int(row["tsc"]),
                int(row["core"]), int(row["pid"]), float(row["value"]),
            )


def _to_record(row):
    from repro.core.trace import TraceRecord

    return TraceRecord(
        int(row["kind"]), int(row["addr"]), int(row["tsc"]),
        int(row["core"]), int(row["pid"]), float(row["value"]),
    )


class RecordSeq(Sequence):
    """Read-only list-like view over a structured record array.

    Indexing materializes :class:`TraceRecord` objects on demand;
    equality against another :class:`RecordSeq` compares the underlying
    arrays directly (no object materialization), and against any other
    sequence element-wise — so legacy ``trace.records == [rec, ...]``
    assertions keep working unchanged.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr: np.ndarray):
        if isinstance(arr, RecordColumns):
            arr = arr.array
        self._arr = arr

    @property
    def array(self) -> np.ndarray:
        """The underlying structured array (no copy)."""
        return self._arr

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_to_record(row) for row in self._arr[i]]
        return _to_record(self._arr[i])

    def __iter__(self) -> Iterator:
        for row in self._arr:
            yield _to_record(row)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordSeq):
            return np.array_equal(self._arr, other._arr)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self._arr):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"RecordSeq({len(self._arr)} records)"
