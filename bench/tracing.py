"""Outside-in span tracing of the ``hda`` package.

Wrappers are installed where each caller looks a name up (a module
global or a class attribute), so nothing under ``src/`` changes.  Every
wrapped call records a span ``[name, start, end, parent, pass_id, info]``
in memory; :meth:`Patches.restore` puts the original objects back.

A call that re-enters a function already open on the span stack (the
row-by-row recursion of ``GeneratorParams.forward`` and ``encode``) is
not recorded, so counts and rows describe the outermost call only.
"""
from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

NAME, START, END, PARENT, PASS, INFO = range(6)


class Patches:
    """Attribute replacements that can be undone and audited."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._originals: dict[tuple[int, str], tuple[object, str, object]] = {}

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current)``; patching twice nests the wrappers."""
        current = _lookup(owner, attr)
        self._saved.append((owner, attr, current))
        self._originals.setdefault((id(owner), attr), (owner, attr, current))
        setattr(owner, attr, make(current))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def leaks(self) -> list[str]:
        """Patched names that do not hold their original object now."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._originals.values()
            if _lookup(owner, attr) is not original
        ]


def _lookup(owner, attr: str):
    # a class attribute is read from the class dict so that a plain
    # function is saved, not a bound or static wrapper around it
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Span recorder; one per traced section of a benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.patches = Patches()
        self.pass_id = None
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, fn, name: str, info=None):
        """``fn`` recording a span per outermost call; ``info(args, kwargs, result)`` adds data."""
        spans, stack, open_names, clock = self.spans, self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                open_names.discard(name)
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        self.patches.replace(owner, attr, lambda fn: self.wrap(fn, name, info))

    def restore(self) -> None:
        self.patches.restore()

    @contextmanager
    def section(self, name: str, pass_id):
        """Root span of one setup or one pass; nested spans carry ``pass_id``."""
        self.pass_id = pass_id
        span = [name, 0.0, 0.0, None, pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.pass_id = None


@contextmanager
def peak_memory_probe(patches: Patches, sites, peaks: list[float]):
    """Run ``tracemalloc`` around each call at ``sites`` and append its peak in MiB."""

    def make(fn):
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return probed

    for owner, attr in sites:
        patches.replace(owner, attr, make)
    try:
        yield peaks
    finally:
        patches.restore()


# --- analysis -------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = [
            (max(s, span[START]), min(e, span[END]))
            for s, e in children.get(i, ())
            if e > span[START] and s < span[END]
        ]
        out.append(span[END] - span[START] - union_length(covered))
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    out = []
    for span in spans:
        parent = span[PARENT]
        flag = True
        while parent is not None:
            if spans[parent][NAME] == span[NAME]:
                flag = False
                break
            parent = spans[parent][PARENT]
        out.append(flag)
    return out


def subtree_self_sums(spans, selfs) -> list[float]:
    """Sum of self times over each span and all of its descendants.

    Parents are recorded before their children, so one reverse sweep
    suffices.
    """
    sums = list(selfs)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent is not None:
            sums[parent] += sums[i]
    return sums


def summarize(spans, selfs=None, keep=None) -> dict[str, dict]:
    """Per-name totals: outermost calls, inclusive time, self time, and summed info.

    ``keep(span)`` restricts the totals to some spans; parent links are
    always resolved against the whole list.
    """
    if selfs is None:
        selfs = self_times(spans)
    outer = outermost(spans)
    out: dict[str, dict] = {}
    for span, self_s, top in zip(spans, selfs, outer):
        if keep is not None and not keep(span):
            continue
        row = out.setdefault(span[NAME], {"calls": 0, "time_s": 0.0, "self_s": 0.0, "info": {}})
        row["self_s"] += self_s
        if not top:
            continue
        row["calls"] += 1
        row["time_s"] += span[END] - span[START]
        for key, value in (span[INFO] or {}).items():
            row["info"][key] = row["info"].get(key, 0) + value
    return out
