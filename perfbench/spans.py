"""In-memory span recorder and the wrappers that feed it.

The traced run measures layers from outside the program: it replaces
the attributes an entry point resolves at call time (module globals
such as ``repro.workloads.load.run_shard_epoch``, or methods on the
classes whose instances the entry point builds) with thin wrappers that
open a span on entry and close it on exit.  Nothing under ``src/`` is
edited, and :func:`patched` restores every original on the way out, so
an untraced call made afterwards in the same process runs the exact
original code.

Calls are synchronous and single-threaded in the parent, so spans nest
strictly: a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Runs after a wrapped call returns: ``after(tracer, args, result)``.
After = Callable[["Tracer", Tuple[Any, ...], Any], None]


class Tracer:
    """Spans ``(name, start, end, parent)`` plus per-layer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (one traced call per reset)."""
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.child_s: List[float] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        # A span that ends when a later span opens rather than when a
        # call returns: ``(index, layer that ends it, or None for any)``.
        self._pending: Optional[Tuple[int, Optional[str]]] = None

    def open_until(self, name: str, until: Optional[str] = None) -> None:
        """Open a span covering code no wrapper encloses: it ends when
        the next span of layer ``until`` opens (any layer when None), or
        at :meth:`close_pending`."""
        self.close_pending()
        self._pending = (self.open(name), until)

    def close_pending(self) -> None:
        if self._pending is not None:
            idx, self._pending = self._pending[0], None
            self.close(idx)

    def open(self, name: str) -> int:
        if self._pending is not None and self._pending[1] in (None, name):
            self.close_pending()
        return self.push(name)

    def push(self, name: str) -> int:
        """Open a span without ending a pending one (garbage collection
        interrupts whatever runs; it is no step of the entry point)."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.child_s.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.names[idx]!r} closed while "
                f"{self.names[top]!r} is still open"
            )
        self.ends[idx] = end
        parent = self.parents[idx]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[idx]

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def self_seconds(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx] - self.child_s[idx]

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self.self_seconds(idx)
        return out

    def write_jsonl(self, path) -> None:
        """One JSON array ``[name, start, end, parent]`` per span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for idx, name in enumerate(self.names):
                out.write(
                    json.dumps([
                        name,
                        round(self.starts[idx] - t0, 9),
                        round(self.ends[idx] - t0, 9),
                        self.parents[idx],
                    ])
                )
                out.write("\n")

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Optional[After] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` with a wrapper that records ``layer``."""

    owner: Any
    attr: str
    layer: str
    after: Optional[After] = None


@contextlib.contextmanager
def gc_spans(tracer: Tracer, layer: str) -> Iterator[None]:
    """Record each garbage collection as a ``layer`` span, nested in
    whatever it interrupted, so that layer's self time excludes it."""
    open_spans: List[int] = []

    def callback(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            open_spans.append(tracer.push(layer))
        elif open_spans:
            tracer.close(open_spans.pop())

    gc.callbacks.append(callback)
    try:
        yield
    finally:
        gc.callbacks.remove(callback)


@contextlib.contextmanager
def patched(tracer: Tracer, patches: Sequence[Patch]) -> Iterator[None]:
    """Install a wrapper for every patch; restore the originals on exit.

    The original is read from the owner's own ``__dict__`` (so a method
    stays a plain function and a class keeps no stray override) and put
    back exactly as it was, whatever the wrapped code raised.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for patch in patches:
            original = vars(patch.owner)[patch.attr]
            saved.append((patch.owner, patch.attr, original))
            setattr(
                patch.owner,
                patch.attr,
                tracer.wrap(patch.layer, original, patch.after),
            )
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
