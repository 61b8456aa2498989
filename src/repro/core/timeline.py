"""Function-timeline reconstruction from ENTER/EXIT records.

This is the capability that forced the paper away from gprof (§3.1): gprof
buckets time per function, but Tempest needs to know *which function was
executing at time X* so temperature samples can be attributed to source
code.  The builder replays each process's ENTER/EXIT stream through a call
stack, producing:

* one :class:`FunctionInterval` per dynamic call (with depth and pid),
* per-function *inclusive* time as the union of its intervals (so recursion
  — micro-benchmark E — never double-counts),
* per-function *exclusive* (self) time via a top-of-stack sweep,
* top-of-stack segments, the series behind Figure 2(b).

Two builders produce identical timelines:

* the **vectorized** builder (:func:`_build_timeline_vectorized`) handles
  well-formed columnar streams without a per-event Python loop.  It
  exploits a structural fact of balanced call streams: within one process,
  the *i*-th ENTER reaching call depth *d* always matches the *i*-th EXIT
  leaving depth *d* (you cannot open a second depth-*d* frame without
  first closing the one already open).  Depths are one cumulative sum;
  pairing is one stable sort per pid; parent frames (for caller arcs and
  top-of-stack naming) are ``searchsorted`` lookups per depth level.
* the **replay** builder (:func:`_replay_timeline`) is the event-at-a-time
  stack machine.  It is the semantic reference, the lenient-repair engine
  (mismatched EXITs unwind, open frames close at end of trace), and the
  producer of precise strict-mode errors.  Any stream the vectorized
  builder finds anomalous falls back here, so error messages and repair
  behaviour are exactly the historical ones.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.records import RecordSeq
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, TraceRecord
from repro.util.errors import TraceError

_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class FunctionInterval:
    """One dynamic activation of a function."""

    name: str
    start_s: float
    end_s: float
    depth: int
    pid: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class TopSegment:
    """A stretch of time during which *name* was the innermost active
    function of process *pid* (what "was executing at time X")."""

    name: str
    start_s: float
    end_s: float
    pid: int


class _IntervalColumns:
    """Columnar interval storage: parallel arrays + a name table.

    Holds what the vectorized builder produced, materializing tuple rows
    only if a consumer asks for them.
    """

    __slots__ = ("names", "name_idx", "start", "end", "depth", "pid")

    def __init__(self, names, name_idx, start, end, depth=None, pid=None):
        self.names = names
        self.name_idx = name_idx
        self.start = start
        self.end = end
        self.depth = depth
        self.pid = pid

    def rows(self) -> list[tuple]:
        nm = self.names
        if self.depth is not None:
            return [
                (nm[i], s, e, d, p)
                for i, s, e, d, p in zip(
                    self.name_idx.tolist(), self.start.tolist(),
                    self.end.tolist(), self.depth.tolist(),
                    self.pid.tolist(),
                )
            ]
        return [
            (nm[i], s, e, p)
            for i, s, e, p in zip(
                self.name_idx.tolist(), self.start.tolist(),
                self.end.tolist(), self.pid.tolist(),
            )
        ]


def _to_rows(src, width: int) -> list[tuple]:
    """Normalize an interval/segment source to a list of tuple rows."""
    if isinstance(src, _IntervalColumns):
        return src.rows()
    out = []
    for item in src:
        if type(item) is tuple:
            out.append(item)
        elif width == 5:
            out.append((item.name, item.start_s, item.end_s, item.depth,
                        item.pid))
        else:
            out.append((item.name, item.start_s, item.end_s, item.pid))
    return out


class Timeline:
    """Reconstructed call timeline for one node.

    Intervals and top-of-stack segments are stored internally as plain
    tuple rows or columnar arrays — a million-event replay cannot afford
    an object per dynamic call.  The ``intervals`` and ``top_segments``
    attributes materialize :class:`FunctionInterval` / :class:`TopSegment`
    views lazily (cached); the quantitative queries never touch them.
    """

    def __init__(
        self,
        intervals,
        top_segments,
        exclusive_s: dict[str, float],
        call_counts: dict[str, int],
        arcs: Optional[dict[tuple[str, str], int]] = None,
        *,
        unions: Optional[dict[str, list[tuple[float, float]]]] = None,
        span: Optional[tuple[float, float]] = None,
    ):
        self._intervals_src = intervals
        self._segments_src = top_segments
        self._interval_rows_cache: Optional[list[tuple]] = None
        self._segment_rows_cache: Optional[list[tuple]] = None
        self._interval_objs: Optional[list[FunctionInterval]] = None
        self._segment_objs: Optional[list[TopSegment]] = None
        self._exclusive = exclusive_s
        self._calls = call_counts
        #: exact caller->callee dynamic-call counts ("<root>" for top-level)
        self.arcs: dict[tuple[str, str], int] = arcs or {}
        self._span = span
        # Aggregate-only timelines (streaming) carry inclusive sums
        # directly instead of deriving them from interval unions.
        self._inclusive_override: Optional[dict[str, float]] = None
        # Merged per-function interval unions, for time and sample queries.
        if unions is not None:
            self._unions = unions
        else:
            self._unions = {}
            by_name: dict[str, list[tuple[float, float]]] = {}
            for row in self._interval_rows():
                by_name.setdefault(row[0], []).append((row[1], row[2]))
            for name, spans in by_name.items():
                self._unions[name] = _merge_spans(spans)

    def _interval_rows(self) -> list[tuple]:
        if self._interval_rows_cache is None:
            self._interval_rows_cache = _to_rows(self._intervals_src, 5)
            self._intervals_src = None
        return self._interval_rows_cache

    def _segment_rows(self) -> list[tuple]:
        if self._segment_rows_cache is None:
            self._segment_rows_cache = _to_rows(self._segments_src, 4)
            self._segments_src = None
        return self._segment_rows_cache

    @property
    def intervals(self) -> list[FunctionInterval]:
        """One :class:`FunctionInterval` per dynamic call (lazy view)."""
        if self._interval_objs is None:
            self._interval_objs = [
                FunctionInterval(*row) for row in self._interval_rows()
            ]
        return self._interval_objs

    @property
    def top_segments(self) -> list[TopSegment]:
        """Top-of-stack segments (lazy view)."""
        if self._segment_objs is None:
            self._segment_objs = [
                TopSegment(*row) for row in self._segment_rows()
            ]
        return self._segment_objs

    # ------------------------------------------------------------------
    def function_names(self) -> list[str]:
        """Functions observed, ordered by decreasing inclusive time."""
        if self._inclusive_override is not None:
            return sorted(self._inclusive_override, key=self.inclusive_time,
                          reverse=True)
        return sorted(self._unions, key=self.inclusive_time, reverse=True)

    def inclusive_time(self, name: str) -> float:
        """Union duration of all activations (recursion-safe)."""
        if self._inclusive_override is not None:
            return self._inclusive_override.get(name, 0.0)
        return sum(e - s for s, e in self._unions.get(name, []))

    def exclusive_time(self, name: str) -> float:
        """Self time: duration this function was top of some stack."""
        return self._exclusive.get(name, 0.0)

    def call_count(self, name: str) -> int:
        """Number of dynamic activations."""
        return self._calls.get(name, 0)

    def callers_of(self, name: str) -> dict[str, int]:
        """Exact call-graph parents of *name* with arc counts (what gprof
        estimates statistically, Tempest's timeline knows exactly)."""
        return {c: n for (c, callee), n in self.arcs.items() if callee == name}

    def callees_of(self, name: str) -> dict[str, int]:
        """Exact call-graph children of *name* with arc counts."""
        return {k: n for (caller, k), n in self.arcs.items() if caller == name}

    def union_spans(self, name: str) -> list[tuple[float, float]]:
        """Merged [start, end) spans during which *name* was on some stack."""
        return list(self._unions.get(name, []))

    def active_at(self, t: float) -> list[str]:
        """Functions on any stack at time *t* (inclusive attribution)."""
        out = []
        for name, spans in self._unions.items():
            if _spans_contain(spans, t):
                out.append(name)
        return out

    def contains(self, name: str, t: float) -> bool:
        """True if *name* was on some stack at time *t*."""
        return _spans_contain(self._unions.get(name, []), t)

    @property
    def span(self) -> tuple[float, float]:
        """(first event, last event) across all processes."""
        if self._span is not None:
            return self._span
        rows = self._interval_rows()
        if not rows:
            return (0.0, 0.0)
        return (
            min(row[1] for row in rows),
            max(row[2] for row in rows),
        )

    @classmethod
    def from_aggregates(
        cls,
        exclusive_s: dict[str, float],
        call_counts: dict[str, int],
        arcs: dict[tuple[str, str], int],
        span: tuple[float, float],
        *,
        inclusive_s: Optional[dict[str, float]] = None,
    ) -> "Timeline":
        """An aggregate-only timeline (no per-call intervals or segments).

        This is what the streaming engine produces: the per-function sums
        exist, but the per-activation interval list was never materialized
        — that is the whole point of constant-memory profiling.  Interval
        and segment queries return empty views; ``inclusive_time`` answers
        from *inclusive_s* when given (``union_spans`` stays empty, since
        the underlying spans were folded away as they closed).
        """
        tl = cls([], [], exclusive_s, call_counts, arcs,
                 unions={}, span=span)
        if inclusive_s:
            tl._inclusive_override = dict(inclusive_s)
        return tl


def _merge_spans(spans: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping spans into a disjoint sorted list."""
    spans = sorted(spans)
    out: list[tuple[float, float]] = []
    for s, e in spans:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _spans_contain(spans: list[tuple[float, float]], t: float) -> bool:
    """Membership test on a disjoint sorted span list (binary search)."""
    if not spans:
        return False
    i = bisect.bisect_right(spans, (t, float("inf"))) - 1
    if i < 0:
        return False
    s, e = spans[i]
    return s <= t <= e


# ----------------------------------------------------------------------
# Input normalization

def _event_arrays(records: np.ndarray, symtab: SymbolTable, seconds_fn):
    """Columnar preprocessing: filter to ENTER/EXIT, convert timestamps
    vectorized, and resolve each *distinct* address once.

    Returns ``(enter_mask, name_idx, names, times, pids)``.
    """
    kind = records["kind"]
    mask = (kind == REC_ENTER) | (kind == REC_EXIT)
    if not mask.all():
        records = records[mask]
        kind = records["kind"]
    times = tsc_seconds(seconds_fn, records["tsc"])
    uniq, inverse = np.unique(records["addr"], return_inverse=True)
    names = [symtab.name_of(int(a)) for a in uniq]
    return (kind == REC_ENTER), inverse, names, times, \
        records["pid"].astype(np.int64)


def _event_lists(records, symtab: SymbolTable, seconds_fn):
    """Per-object preprocessing for iterables of :class:`TraceRecord`."""
    kinds: list[int] = []
    names: list[str] = []
    times: list[float] = []
    pids: list[int] = []
    for rec in records:
        if rec.kind not in (REC_ENTER, REC_EXIT):
            continue
        kinds.append(rec.kind)
        names.append(symtab.name_of(rec.addr))
        times.append(seconds_fn(rec.tsc))
        pids.append(rec.pid)
    return kinds, names, times, pids


def tsc_seconds(seconds_fn, tsc: np.ndarray) -> np.ndarray:
    """Convert a TSC column to float64 seconds with ``seconds_fn``.

    Calls ``seconds_fn`` once on the whole column; a calibration that is
    not elementwise (raises, or returns the wrong shape) is applied
    record by record instead, with identical results.  The one TSC
    conversion behind the timeline builder, the batch parser's sensor
    series and the streaming accumulator.
    """
    try:
        times = np.asarray(seconds_fn(tsc), dtype=np.float64)
        if times.shape != tsc.shape:
            raise TypeError("seconds_fn is not elementwise")
    except (TypeError, ValueError, AttributeError) as exc:
        _log.debug("seconds_fn %r is not elementwise (%s); converting "
                   "record-by-record", seconds_fn, exc)
        times = np.array([seconds_fn(int(v)) for v in tsc], dtype=np.float64)
    return times


# ----------------------------------------------------------------------
# Vectorized builder (well-formed streams only)

def frame_depths(is_enter: np.ndarray, base_depth: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The matched-frame trick's depth arrays for one process's stream.

    ``depth_after[i]`` is the call depth after event *i* (starting from
    ``base_depth`` frames already open); ``frame_depth[i]`` is the depth
    of the frame the event belongs to — an ENTER's own depth, or for an
    EXIT the depth of the frame it closes.  Within one process the *i*-th
    ENTER reaching depth *d* always matches the *i*-th EXIT leaving depth
    *d* (a second depth-*d* frame cannot open before the first closes),
    so ``frame_depth`` plus one stable sort pairs every frame without a
    per-event loop.  Shared by :func:`_build_timeline_vectorized` and the
    streaming accumulator's chunked fast path
    (:meth:`repro.core.streamprof.ProfileAccumulator.consume`), which
    passes ``base_depth`` to thread its carry-over stack into the chunk.
    """
    depth_after = np.cumsum(np.where(is_enter, 1, -1))
    if base_depth:
        depth_after = depth_after + base_depth
    frame_depth = np.where(is_enter, depth_after, depth_after + 1)
    return depth_after, frame_depth


def _grouped_unions(names: list[str], name_idx: np.ndarray,
                    starts: np.ndarray, ends: np.ndarray
                    ) -> dict[str, list[tuple[float, float]]]:
    """Per-name merged span unions, built by one lexsort + per-group
    running-max merges (identical output to :func:`_merge_spans`)."""
    unions: dict[str, list[tuple[float, float]]] = {}
    if not len(name_idx):
        return unions
    order = np.lexsort((ends, starts, name_idx))
    ni = name_idx[order]
    s = starts[order]
    e = ends[order]
    bounds = np.nonzero(np.concatenate(([True], ni[1:] != ni[:-1])))[0]
    bounds = np.append(bounds, len(ni))
    for gi in range(len(bounds) - 1):
        lo, hi = int(bounds[gi]), int(bounds[gi + 1])
        ss, ee = s[lo:hi], e[lo:hi]
        cm = np.maximum.accumulate(ee)
        new = np.empty(hi - lo, dtype=bool)
        new[0] = True
        new[1:] = ss[1:] > cm[:-1]
        starts_m = ss[new]
        idx_new = np.nonzero(new)[0]
        ends_m = cm[np.append(idx_new[1:] - 1, hi - lo - 1)]
        unions[names[int(ni[lo])]] = list(
            zip(starts_m.tolist(), ends_m.tolist())
        )
    return unions


def _build_timeline_vectorized(enter_mask, name_idx, names, times, pids
                               ) -> Optional[Timeline]:
    """Build a Timeline from columnar events without a per-event loop.

    Returns None when the stream is not well-formed — non-monotonic
    timestamps, negative depth, unbalanced or name-mismatched frames —
    so the caller can fall back to the replay builder (which repairs in
    lenient mode and raises precise errors in strict mode).
    """
    n = len(times)
    if n == 0:
        return Timeline([], [], {}, {}, {})
    n_names = len(names)
    excl = np.zeros(n_names)
    excl_hits = np.zeros(n_names, dtype=np.int64)
    calls_vec = np.zeros(n_names, dtype=np.int64)
    arc_codes: dict[int, int] = {}
    iv_parts: list[tuple] = []      # (name_idx, start, end, depth, pid, key)
    seg_parts: list[tuple] = []     # (name_idx, start, end, pid, key)

    for pid in np.unique(pids):
        sel = pids == pid
        gpos = np.nonzero(sel)[0]
        is_enter = enter_mask[sel]
        t = times[sel]
        ni = name_idx[sel]
        m = len(t)
        if m > 1 and np.any(t[1:] < t[:-1] - 1e-12):
            return None
        depth_after, frame_depth = frame_depths(is_enter)
        if depth_after.min() < 0 or depth_after[-1] != 0:
            return None
        enters = np.nonzero(is_enter)[0]
        exits = np.nonzero(~is_enter)[0]
        ed = frame_depth[enters]
        xd = frame_depth[exits]
        # The i-th ENTER reaching depth d matches the i-th EXIT leaving it.
        eorder = np.argsort(ed, kind="stable")
        xorder = np.argsort(xd, kind="stable")
        pe = enters[eorder]
        px = exits[xorder]
        if not np.array_equal(ed[eorder], xd[xorder]):
            return None
        if not np.array_equal(ni[pe], ni[px]):
            return None

        iv_parts.append((ni[pe], t[pe], t[px], ed[eorder] - 1,
                         np.full(len(pe), pid, dtype=np.int64), gpos[px]))
        calls_vec += np.bincount(ni[enters], minlength=n_names)

        # Open-frame lookup tables: ascending ENTER positions per depth.
        enters_at = {int(d): enters[ed == d] for d in np.unique(ed)}

        # Top-of-stack name after each event: an ENTER is its own top; an
        # EXIT leaves the most recent still-open frame one level up on top.
        top_idx = np.full(m, -1, dtype=np.int64)
        top_idx[enters] = ni[enters]
        exit_da = depth_after[exits]
        live = exit_da > 0
        live_exits = exits[live]
        live_d = exit_da[live]
        for d in np.unique(live_d):
            q = live_exits[live_d == d]
            open_enters = enters_at[int(d)]
            parent = open_enters[np.searchsorted(open_enters, q) - 1]
            top_idx[q] = ni[parent]

        # Caller arcs: each ENTER's caller is the open frame one level up
        # ("<root>", coded -1, for depth-1 enters).
        caller = np.full(len(enters), -1, dtype=np.int64)
        for d in np.unique(ed):
            if d == 1:
                continue
            at_d = ed == d
            q = enters[at_d]
            open_enters = enters_at[int(d) - 1]
            parent = open_enters[np.searchsorted(open_enters, q) - 1]
            caller[at_d] = ni[parent]
        codes = (caller + 1) * n_names + ni[enters]
        for code, cnt in zip(*np.unique(codes, return_counts=True)):
            code = int(code)
            arc_codes[code] = arc_codes.get(code, 0) + int(cnt)

        # Top-of-stack segments: one per gap between consecutive events
        # while the stack is non-empty (zero-length gaps never credit).
        if m > 1:
            da = depth_after[:-1]
            dt = t[1:] - t[:-1]
            valid = (da > 0) & (dt > 0)
            if valid.any():
                tn = top_idx[:-1][valid]
                seg_parts.append((tn, t[:-1][valid], t[1:][valid],
                                  np.full(int(valid.sum()), pid,
                                          dtype=np.int64),
                                  gpos[1:][valid]))
                np.add.at(excl, tn, dt[valid])
                excl_hits += np.bincount(tn, minlength=n_names)

    def _assemble(parts, with_depth: bool):
        if not parts:
            return _IntervalColumns(names, np.empty(0, np.int64),
                                    np.empty(0), np.empty(0),
                                    np.empty(0, np.int64) if with_depth
                                    else None,
                                    np.empty(0, np.int64))
        cols = [np.concatenate([p[i] for p in parts])
                for i in range(len(parts[0]))]
        order = np.argsort(cols[-1], kind="stable")   # global stream order
        cols = [c[order] for c in cols[:-1]]
        if with_depth:
            return _IntervalColumns(names, cols[0], cols[1], cols[2],
                                    cols[3], cols[4])
        return _IntervalColumns(names, cols[0], cols[1], cols[2],
                                pid=cols[3])

    intervals = _assemble(iv_parts, True)
    segments = _assemble(seg_parts, False)
    unions = _grouped_unions(names, intervals.name_idx, intervals.start,
                             intervals.end)
    span = ((float(intervals.start.min()), float(intervals.end.max()))
            if len(intervals.start) else (0.0, 0.0))
    exclusive = {names[i]: float(excl[i])
                 for i in np.nonzero(excl_hits)[0]}
    calls = {names[i]: int(calls_vec[i])
             for i in np.nonzero(calls_vec)[0]}
    arcs = {
        (("<root>" if code < n_names else names[code // n_names - 1]),
         names[code % n_names]): cnt
        for code, cnt in arc_codes.items()
    }
    return Timeline(intervals, segments, exclusive, calls, arcs,
                    unions=unions, span=span)


# ----------------------------------------------------------------------
# Replay builder (semantic reference; repairs + precise errors)

def _replay_timeline(ev_kinds, ev_names, ev_times, ev_pids, *,
                     strict: bool) -> Timeline:
    """Event-at-a-time stack replay over parallel event lists."""
    # The loop runs once per event for every record in the trace, so it
    # works on plain tuples and local bindings — no per-event object
    # construction, no closure calls on the hot branch.
    stacks: dict[int, list[tuple[str, float]]] = {}
    last_time: dict[int, float] = {}
    intervals: list[tuple] = []          # (name, start, end, depth, pid)
    top_segments: list[tuple] = []       # (name, start, end, pid)
    exclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    arcs: dict[tuple[str, str], int] = {}
    # Top-of-stack accounting: (name, since) per pid.
    top_since: dict[int, tuple[str, float]] = {}

    intervals_append = intervals.append
    segments_append = top_segments.append
    exclusive_get = exclusive.get
    top_since_get = top_since.get

    def credit_top(pid: int, until: float) -> None:
        # Cold-path twin of the inlined credit logic below (used by the
        # rarer lenient-repair and end-of-trace branches).
        cur = top_since.get(pid)
        if cur is not None:
            name, since = cur
            if until > since:
                exclusive[name] = exclusive.get(name, 0.0) + (until - since)
                segments_append((name, since, until, pid))

    for kind, name, t, pid in zip(ev_kinds, ev_names, ev_times, ev_pids):
        stack = stacks.get(pid)
        if stack is None:
            stack = stacks[pid] = []
        prev = last_time.get(pid)
        if prev is not None and t < prev - 1e-12:
            if strict:
                raise TraceError(
                    f"pid {pid}: timestamps regressed ({t} after {prev}); was "
                    "the process bound to one core?"
                )
            t = prev  # lenient: clamp to restore monotonicity
        last_time[pid] = t
        if kind == REC_ENTER:
            cur = top_since_get(pid)
            if cur is not None:
                top_name, since = cur
                if t > since:
                    exclusive[top_name] = (
                        exclusive_get(top_name, 0.0) + (t - since)
                    )
                    segments_append((top_name, since, t, pid))
            caller = stack[-1][0] if stack else "<root>"
            arcs[(caller, name)] = arcs.get((caller, name), 0) + 1
            stack.append((name, t))
            top_since[pid] = (name, t)
            calls[name] = calls.get(name, 0) + 1
        else:
            if not stack:
                if strict:
                    raise TraceError(f"pid {pid}: EXIT {name!r} with empty stack")
                continue
            if stack[-1][0] != name:
                if strict:
                    raise TraceError(
                        f"pid {pid}: EXIT {name!r} but top of stack is "
                        f"{stack[-1][0]!r}"
                    )
                # Lenient: close the current top-of-stack segment at this
                # timestamp *before* unwinding — the crossed frames are
                # about to be popped, and a stale ``top_since`` naming a
                # popped frame would corrupt later exclusive-time credit.
                credit_top(pid, t)
                while stack and stack[-1][0] != name:
                    crossed, t0 = stack.pop()
                    intervals_append((crossed, t0, t, len(stack), pid))
                if not stack:
                    # The EXIT matched nothing: every frame unwound, so no
                    # function is executing for this pid anymore.
                    top_since.pop(pid, None)
                    continue
                top_since[pid] = (stack[-1][0], t)
            cur = top_since_get(pid)
            if cur is not None:
                top_name, since = cur
                if t > since:
                    exclusive[top_name] = (
                        exclusive_get(top_name, 0.0) + (t - since)
                    )
                    segments_append((top_name, since, t, pid))
            _, t0 = stack.pop()
            intervals_append((name, t0, t, len(stack), pid))
            if stack:
                top_since[pid] = (stack[-1][0], t)
            else:
                top_since.pop(pid, None)

    # End-of-trace handling for frames still open.
    for pid, stack in stacks.items():
        if stack:
            if strict:
                open_names = [n for n, _ in stack]
                raise TraceError(
                    f"pid {pid}: trace ended with open frames {open_names}"
                )
            t_end = last_time.get(pid, stack[-1][1])
            credit_top(pid, t_end)
            while stack:
                name, t0 = stack.pop()
                intervals_append((name, t0, t_end, len(stack), pid))

    return Timeline(intervals, top_segments, exclusive, calls, arcs)


def build_timeline(
    records,
    symtab: SymbolTable,
    seconds_fn,
    *,
    strict: bool = True,
) -> Timeline:
    """Reconstruct a :class:`Timeline` from raw ENTER/EXIT records.

    *records* is either a structured record array (the columnar hot path
    — see :mod:`repro.core.records`) or any iterable of
    :class:`TraceRecord`.  ``seconds_fn(tsc) -> float`` applies the
    node's TSC calibration (vectorized when the input is columnar).  In
    strict mode, unbalanced streams (an EXIT whose address does not match
    the top of the stack, or ENTERs left open at end of trace) raise
    :class:`TraceError`; in lenient mode the stream is repaired the way a
    real post-processor must (mismatches unwind, open frames close at the
    last event time).

    Columnar input takes the vectorized builder when the stream is
    well-formed; anomalous streams fall back to the replay builder for
    repair (lenient) or precise rejection (strict).
    """
    if isinstance(records, RecordSeq):
        records = records.array
    if isinstance(records, np.ndarray):
        enter_mask, name_idx, names, times, pids = _event_arrays(
            records, symtab, seconds_fn
        )
        timeline = _build_timeline_vectorized(
            enter_mask, name_idx, names, times, pids
        )
        if timeline is not None:
            return timeline
        name_list = [names[i] for i in name_idx.tolist()]
        kind_list = np.where(enter_mask, REC_ENTER, REC_EXIT).tolist()
        return _replay_timeline(kind_list, name_list, times.tolist(),
                                pids.tolist(), strict=strict)
    return _replay_timeline(*_event_lists(records, symtab, seconds_fn),
                            strict=strict)
