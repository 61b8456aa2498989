"""Staged appends in :class:`RecordColumns` and :class:`TraceSpool`.

``append_row`` stages rows and writes them into the backing array in
blocks of :data:`STAGE_ROWS`; the spool drains its chunk every
``chunk_records`` rows.  These properties run random interleavings of
appends, bulk extends, clears and every read across both boundaries
and compare each read with a plain list of the rows appended so far.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.records import (
    RECORD_DTYPE,
    STAGE_ROWS,
    RecordColumns,
    records_to_bytes,
)
from repro.core.spool import TraceSpool, read_spool_columns
from repro.core.trace import TraceRecord


def _row(i: int) -> tuple:
    """A distinct record per index, every field varied."""
    return (i % 8, i * 7919 - 50, i * 1000 + 1, i % 4, 1 + i % 3,
            i / 3.0)


def _array(rows: list[tuple]) -> np.ndarray:
    return np.array(rows, dtype=RECORD_DTYPE)


#: row counts that land below, on and across a staging block
_sizes = st.one_of(st.integers(0, 5),
                   st.integers(STAGE_ROWS - 3, STAGE_ROWS + 3),
                   st.integers(0, 2 * STAGE_ROWS + 10))

_READS = ("array", "to_bytes", "len", "kind_mask", "pid_mask", "select",
          "record_at", "iter_records")

_column_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), _sizes),
    st.tuples(st.just("extend"), st.integers(0, 40)),
    st.tuples(st.just("clear"), st.just(0)),
    st.tuples(st.sampled_from(_READS), st.integers(0, 10**6)),
), min_size=1, max_size=12)


def _check_read(cols: RecordColumns, ref: list[tuple], op: str,
                arg: int) -> None:
    expect = _array(ref)
    if op == "len":
        assert len(cols) == len(ref)
    elif op == "array":
        assert cols.array.tobytes() == expect.tobytes()
    elif op == "to_bytes":
        assert cols.to_bytes() == records_to_bytes(expect)
    elif op == "kind_mask":
        assert np.array_equal(cols.kind_mask(arg % 8, 3),
                              np.isin(expect["kind"], [arg % 8, 3]))
    elif op == "pid_mask":
        assert np.array_equal(cols.pid_mask(1 + arg % 3),
                              expect["pid"] == 1 + arg % 3)
    elif op == "select":
        mask = expect["core"] == arg % 4
        assert cols.select(mask).tobytes() == expect[mask].tobytes()
    elif op == "record_at":
        if ref:
            i = arg % len(ref)
            assert cols.record_at(i) == TraceRecord(*ref[i])
    elif op == "iter_records":
        assert list(cols.iter_records()) == [TraceRecord(*r) for r in ref]


@settings(max_examples=60, deadline=None)
@given(ops=_column_ops, capacity=st.sampled_from([1, 3, 1024, 5000]))
def test_record_columns_reads_equal_unstaged_reference(ops, capacity):
    cols = RecordColumns(capacity=capacity)
    ref: list[tuple] = []
    nxt = 0
    for op, arg in ops:
        if op == "append":
            for _ in range(arg):
                row = _row(nxt)
                nxt += 1
                cols.append_row(*row)
                ref.append(row)
            assert len(cols) == len(ref)
        elif op == "extend":
            rows = [_row(nxt + k) for k in range(arg)]
            nxt += arg
            cols.extend_array(_array(rows) if rows
                              else np.empty(0, RECORD_DTYPE))
            ref.extend(rows)
        elif op == "clear":
            cols.clear()
            ref.clear()
        else:
            _check_read(cols, ref, op, arg)
    _check_read(cols, ref, "to_bytes", 0)
    _check_read(cols, ref, "len", 0)


_spool_ops = st.lists(st.one_of(
    st.tuples(st.just("event"), _sizes),
    st.tuples(st.just("array"), st.integers(0, 40)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("tail"), st.just(0)),
), min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(ops=_spool_ops,
       chunk_records=st.sampled_from([1, 7, STAGE_ROWS, STAGE_ROWS + 1,
                                      4096]))
def test_spool_reads_equal_unstaged_reference(tmp_path_factory, ops,
                                              chunk_records):
    path = tmp_path_factory.mktemp("spool") / "node1.spool"
    spool = TraceSpool(path, chunk_records=chunk_records)
    ref: list[tuple] = []
    cursor = 0
    nxt = 0
    with spool:
        for op, arg in ops:
            if op == "event":
                for _ in range(arg):
                    row = _row(nxt)
                    nxt += 1
                    spool.write_event(*row)
                    ref.append(row)
                    # the chunk drains as soon as it holds chunk_records
                    assert len(spool._chunk) < chunk_records
            elif op == "array":
                rows = [_row(nxt + k) for k in range(arg)]
                nxt += arg
                if rows:
                    spool.write_array(_array(rows))
                ref.extend(rows)
            elif op == "flush":
                spool.flush()
                assert path.stat().st_size == len(ref) * RECORD_DTYPE.itemsize
            else:
                tail = spool.tail_records(cursor)
                assert tail.tobytes() == _array(ref[cursor:]).tobytes()
                cursor = len(ref)
            assert spool.records_written == len(ref)
    assert read_spool_columns(path).tobytes() == _array(ref).tobytes()
